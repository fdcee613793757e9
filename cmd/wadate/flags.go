package main

import (
	"os"
	"path/filepath"
	"slices"

	"repro/internal/cliutil"
)

// modeFlags are the flag values that decide which other flags apply.
type modeFlags struct {
	exp, worker, distribute, checkpointDir string
	eval, campaign, resume                 bool
	haltAfter                              int
}

// campaignOnly lists the flags only campaign mode reads.
var campaignOnly = []string{"json", "backends", "cellworkers", "reps", "objsets", "workloads", "warmstart",
	"checkpoint-dir", "checkpoint-every", "resume", "halt-after-checkpoints", "stats",
	"islands", "migrate-every", "migrate-k"}

// checkFlags rejects mode-mismatched flags rather than silently
// ignoring them: a paper-scale run is too expensive to discover
// afterwards that a flag never applied. explicitly holds the names of
// the flags set on the command line; m holds the values that pick the
// mode (m.campaign already includes -distribute). It also rejects
// checkpoint flag combinations that cannot work. Every rejection is a
// cliutil usage error (exit status 2), returned before any work runs.
func checkFlags(explicitly map[string]bool, m modeFlags) error {
	switch {
	case m.worker != "":
		// A worker takes its whole campaign configuration from the
		// coordinator over the wire, so every local configuration
		// flag is a mistake; only the crash-test aid and profiling
		// apply.
		return onlyFlags(explicitly, "-worker mode (the coordinator supplies the campaign configuration)",
			"worker", "halt-after-checkpoints", "cpuprofile", "memprofile")
	case m.eval:
		// Eval mode is a one-shot scoring call sharing the serving
		// daemon's code path; experiment and campaign flags cannot
		// apply.
		return onlyFlags(explicitly, "-eval mode",
			"eval", "genome", "backend", "workload", "nw", "cpuprofile", "memprofile")
	}
	for _, name := range []string{"genome", "backend", "workload"} {
		if explicitly[name] {
			return cliutil.Usagef("-%s only applies in -eval mode", name)
		}
	}
	if !m.campaign {
		for _, name := range campaignOnly {
			if explicitly[name] {
				return cliutil.Usagef("-%s does not apply outside -campaign mode", name)
			}
		}
		return checkExpFlags(explicitly, m.exp)
	}
	for _, name := range []string{"exp", "seeds"} {
		if explicitly[name] {
			return cliutil.Usagef("-%s does not apply in -campaign mode", name)
		}
	}
	if err := checkCheckpointFlags(explicitly, m); err != nil {
		return err
	}
	if m.distribute != "" {
		switch {
		case m.checkpointDir == "":
			return cliutil.Usagef("-distribute needs -checkpoint-dir (the directory is the durable ground truth workers stream into)")
		case m.haltAfter > 0:
			return cliutil.Usagef("-halt-after-checkpoints is a -worker flag; the coordinator does not write snapshots itself")
		case explicitly["cellworkers"]:
			return cliutil.Usagef("-cellworkers does not apply with -distribute (parallelism is the number of connected workers)")
		}
	}
	return nil
}

// onlyFlags rejects every explicitly set flag outside allowed. The
// names are checked in sorted order, so the reported flag does not
// depend on map iteration.
func onlyFlags(explicitly map[string]bool, mode string, allowed ...string) error {
	names := make([]string, 0, len(explicitly))
	for name := range explicitly {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if !slices.Contains(allowed, name) {
			return cliutil.Usagef("-%s does not apply in %s", name, mode)
		}
	}
	return nil
}

// checkExpFlags rejects suite flags the chosen experiment never
// reads: table1, app and sensitivity print fixed results, convergence
// runs serially and writes no CSV, robustness writes no CSV, and only
// robustness takes a seed count.
func checkExpFlags(explicitly map[string]bool, exp string) error {
	var unread []string
	switch exp {
	case "table1", "app", "sensitivity":
		unread = []string{"nw", "pop", "gens", "seed", "workers", "seeds", "csv"}
	case "convergence":
		unread = []string{"workers", "seeds", "csv"}
	case "robustness":
		unread = []string{"csv"}
	case "all", "summary", "table2", "fig6a", "fig6b", "fig7":
		unread = []string{"seeds"}
	default:
		return cliutil.Usagef("unknown experiment %q", exp)
	}
	for _, name := range unread {
		if explicitly[name] {
			return cliutil.Usagef("-%s does not apply to -exp %s", name, exp)
		}
	}
	return nil
}

// checkCheckpointFlags rejects checkpoint flag combinations up front:
// every checkpoint-dependent flag needs -checkpoint-dir, and -resume
// needs a directory that actually holds a campaign manifest —
// discovering either hours into a paper-scale sweep (or worse,
// silently starting a fresh campaign) is exactly what the early check
// prevents.
func checkCheckpointFlags(explicitly map[string]bool, m modeFlags) error {
	if m.checkpointDir == "" {
		switch {
		case m.resume:
			return cliutil.Usagef("-resume needs -checkpoint-dir (there is nothing to resume from)")
		case m.haltAfter > 0:
			return cliutil.Usagef("-halt-after-checkpoints needs -checkpoint-dir")
		case explicitly["checkpoint-every"]:
			return cliutil.Usagef("-checkpoint-every needs -checkpoint-dir")
		}
		return nil
	}
	if m.resume {
		manifest := filepath.Join(m.checkpointDir, "manifest.json")
		if _, err := os.Stat(manifest); err != nil {
			return cliutil.Usagef("-resume: no campaign manifest at %s (run once without -resume to start the campaign): %v", manifest, err)
		}
	}
	return nil
}
