// Package repro is a from-scratch Go reproduction of "Start-time Fair
// Queuing: A Scheduling Algorithm for Integrated Services Packet Switching
// Networks" (Goyal, Vin & Cheng, SIGCOMM 1996).
//
// The SFQ scheduler lives in internal/core and the hierarchical SFQ
// link-sharing scheduler, built from one tree description (hier.Spec), in
// internal/hier; the baselines the paper compares against (WFQ, FQS, SCFQ,
// DRR, Virtual Clock, Delay EDD, Fair Airport) live in internal/sched; the
// discrete-event network simulator, variable-rate server models, traffic
// sources (including a synthetic MPEG VBR model and a simplified TCP Reno),
// analytical bounds, and the experiment harness that regenerates every
// table and figure of the paper live in the remaining internal packages.
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package repro
