// Package repro is a from-scratch Go reproduction of "Performance and
// Energy Aware Wavelength Allocation on Ring-Based WDM 3D Optical
// NoC" (J. Luo, A. Elantably, V.D. Pham, C. Killian, D. Chillet,
// S. Le Beux, O. Sentieys, I. O'Connor — DATE 2017).
//
// The library lives under internal/: the photonic device models
// (phys), the ring ONoC architecture and loss budget (ring), the
// application and time models (graph, sched), the chromosome
// evaluation and baseline heuristics (alloc), the NSGA-II engine
// (nsga2), the wavelength-allocation explorer that is the paper's
// contribution (core), a cycle-resolution simulator (sim), and the
// experiment harness regenerating every table and figure (expt).
//
// Entry points: cmd/wadate (experiments and campaign sweeps),
// cmd/onocsim (simulator), cmd/wagen (workload generator), the
// runnable walkthroughs under examples/, and the per-figure
// benchmarks in bench_test.go. See README.md, DESIGN.md and
// EXPERIMENTS.md.
package repro
