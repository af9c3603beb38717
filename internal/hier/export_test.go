package hier

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"

	"repro/internal/liveops"
	"repro/internal/sched"
)

// encoding/json is the reference the tree's state codec is held to. The
// mirrors below are treeState and nodeState as encoding/json sees them:
// the discipline envelopes as raw documents, not base64 strings.

type treeJSON struct {
	Last     float64  `json:"last"`
	Busy     bool     `json:"busy"`
	Total    int      `json:"total"`
	Seq      uint64   `json:"seq"`
	Root     nodeJSON `json:"root"`
	Draining []int    `json:"draining,omitempty"`
}

type nodeJSON struct {
	Name       string            `json:"name"`
	Weight     float64           `json:"weight"`
	Leaf       bool              `json:"leaf,omitempty"`
	Flow       int               `json:"flow,omitempty"`
	Active     bool              `json:"active,omitempty"`
	CurStart   float64           `json:"curStart,omitempty"`
	LastFinish float64           `json:"lastFinish,omitempty"`
	Serial     uint64            `json:"serial,omitempty"`
	V          float64           `json:"v,omitempty"`
	MaxFinish  float64           `json:"maxFinish,omitempty"`
	SerialSrc  uint64            `json:"serialSrc,omitempty"`
	Fifo       *sched.FlowQState `json:"fifo,omitempty"`
	Children   []nodeJSON        `json:"children,omitempty"`
	Disc       string            `json:"disc,omitempty"`
	Env        json.RawMessage   `json:"env,omitempty"`
	Flows      []int             `json:"flows,omitempty"`
}

func (st *nodeState) mirror() nodeJSON {
	m := nodeJSON{
		Name: st.Name, Weight: st.Weight, Leaf: st.Leaf, Flow: st.Flow,
		Active: st.Active, CurStart: st.CurStart, LastFinish: st.LastFinish, Serial: st.Serial,
		V: st.V, MaxFinish: st.MaxFinish, SerialSrc: st.SerialSrc,
		Fifo: st.Fifo, Env: st.Env, Disc: st.Disc, Flows: st.Flows,
	}
	if st.Children != nil {
		m.Children = []nodeJSON{}
	}
	for i := range st.Children {
		m.Children = append(m.Children, st.Children[i].mirror())
	}
	return m
}

// captureJSON is the tree's state as it was captured before the codec:
// node records built from the classes, discipline envelopes from
// liveops.Snapshot, all of it written by encoding/json.
func (h *Tree) captureJSON(c *Node) (nodeJSON, error) {
	st := nodeJSON{
		Name: c.name, Weight: c.weight, Leaf: c.kind == kindLeafFlow, Flow: c.flow,
		Active: c.active, CurStart: c.curStart, LastFinish: c.lastFinish, Serial: c.serial,
		V: c.v, MaxFinish: c.maxFinish, SerialSrc: c.serialSrc,
	}
	switch c.kind {
	case kindLeafFlow:
		if c.queued() > 0 {
			fifo := c.fifo.CaptureState()
			fifo.Flow = c.flow
			st.Fifo = &fifo
		}
		return st, nil
	case kindDisc, kindLeafDisc:
		env, err := liveops.Snapshot(c.disc.(sched.Snapshotter))
		if err != nil {
			return st, err
		}
		st.Disc, st.Env = c.discName, env
		if c.kind == kindLeafDisc {
			for f, leaf := range h.leaves {
				if leaf == c {
					st.Flows = append(st.Flows, f)
				}
			}
			sort.Ints(st.Flows)
			return st, nil
		}
	}
	for _, ch := range c.children {
		cs, err := h.captureJSON(ch)
		if err != nil {
			return st, err
		}
		st.Children = append(st.Children, cs)
	}
	return st, nil
}

// CheckStateCodec holds data, the AppendState bytes of h, to encoding/json
// both ways: it is what encoding/json writes for the state h holds, the
// codec decodes it to what json.Unmarshal decodes, and json.Marshal of
// that gives data back. Discipline envelopes are held to the same as raw
// documents (the disciplines' own states are internal/sched's to check).
func CheckStateCodec(h *Tree, data []byte) error {
	root, err := h.captureJSON(h.root)
	if err != nil {
		return err
	}
	want, err := json.Marshal(treeJSON{
		Last: h.last, Busy: h.busy, Total: h.total, Seq: h.seq,
		Root: root, Draining: h.draining.Flows(),
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(data, want) {
		return fmt.Errorf("%s: codec wrote\n%s\nencoding/json writes\n%s", h.kind, data, want)
	}
	std, err := checkTreeDecode(data)
	if err != nil {
		return fmt.Errorf("%s: %w", h.kind, err)
	}
	if again, err := json.Marshal(std); err != nil || !bytes.Equal(again, data) {
		return fmt.Errorf("%s: encoding/json writes the decoded state back as\n%s (%v)", h.kind, again, err)
	}
	// With the members of every object reversed, the codec reads the state
	// through its fallback to what encoding/json reads.
	rev, err := reverseMembers(data)
	if err != nil {
		return err
	}
	if _, err := checkTreeDecode(rev); err != nil {
		return fmt.Errorf("%s: members reversed: %w", h.kind, err)
	}
	return nil
}

// checkTreeDecode decodes data as a tree state with the codec and with
// encoding/json, and requires both to accept it and agree.
func checkTreeDecode(data []byte) (treeJSON, error) {
	var codec treeState
	var std treeJSON
	if err := codec.decode(data); err != nil {
		return std, fmt.Errorf("codec decode: %w", err)
	}
	if err := json.Unmarshal(data, &std); err != nil {
		return std, fmt.Errorf("encoding/json decode: %w", err)
	}
	if conv := codec.mirror(); !reflect.DeepEqual(conv, std) {
		return std, fmt.Errorf("codec decoded\n%+v\nencoding/json decoded\n%+v", conv, std)
	}
	return std, nil
}

func (st *treeState) mirror() treeJSON {
	return treeJSON{Last: st.Last, Busy: st.Busy, Total: st.Total, Seq: st.Seq, Root: st.Root.mirror(), Draining: st.Draining}
}

// reverseMembers returns the JSON document data with the members of every
// object in reverse order.
func reverseMembers(data []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var rev func() ([]byte, error)
	rev = func() ([]byte, error) {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		d, ok := tok.(json.Delim)
		if !ok {
			if n, ok := tok.(json.Number); ok {
				return []byte(n), nil
			}
			return json.Marshal(tok)
		}
		var parts [][]byte
		for dec.More() {
			var key []byte
			if d == '{' {
				k, err := dec.Token()
				if err != nil {
					return nil, err
				}
				key, _ = json.Marshal(k)
				key = append(key, ':')
			}
			v, err := rev()
			if err != nil {
				return nil, err
			}
			parts = append(parts, append(key, v...))
		}
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
		if d == '{' {
			slices.Reverse(parts)
			return []byte("{" + string(bytes.Join(parts, []byte(","))) + "}"), nil
		}
		return []byte("[" + string(bytes.Join(parts, []byte(","))) + "]"), nil
	}
	return rev()
}
