package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliutil"
)

// set builds the explicitly-set flag map from flag names.
func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// TestCheckFlags pins every flag-applicability rejection (each a usage
// error naming the offending flag) and one accepted flag set per mode.
func TestCheckFlags(t *testing.T) {
	withManifest := t.TempDir()
	if err := os.WriteFile(filepath.Join(withManifest, "manifest.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()

	suite := func(exp string) modeFlags { return modeFlags{exp: exp} }
	camp := modeFlags{exp: "all", campaign: true}
	ckpt := func(dir string, resume bool, halt int) modeFlags {
		m := camp
		m.checkpointDir, m.resume, m.haltAfter = dir, resume, halt
		return m
	}
	distribute := func(dir string, halt int) modeFlags {
		m := ckpt(dir, false, halt)
		m.distribute = "127.0.0.1:9"
		return m
	}
	worker := modeFlags{exp: "all", worker: "127.0.0.1:9"}
	eval := modeFlags{exp: "all", eval: true}

	type tc struct {
		name string
		set  map[string]bool
		mode modeFlags
		want string // "" = accepted; otherwise a substring of the usage error
	}
	cases := []tc{
		// Accepted sets, one per mode.
		{"worker", set("worker", "halt-after-checkpoints", "cpuprofile", "memprofile"), worker, ""},
		{"eval", set("eval", "genome", "backend", "workload", "nw", "cpuprofile"), eval, ""},
		{"suite all", set("exp", "nw", "pop", "gens", "seed", "workers", "quick", "csv", "cpuprofile"), suite("all"), ""},
		{"suite fig7", set("exp", "nw", "pop", "gens", "seed", "csv"), suite("fig7"), ""},
		{"suite table1", set("exp", "quick"), suite("table1"), ""},
		{"suite app", set("exp"), suite("app"), ""},
		{"suite sensitivity", set("exp"), suite("sensitivity"), ""},
		{"suite convergence", set("exp", "nw", "pop", "gens", "seed", "quick"), suite("convergence"), ""},
		{"suite robustness", set("exp", "nw", "pop", "gens", "seed", "seeds", "workers"), suite("robustness"), ""},
		{"campaign", set("campaign", "nw", "pop", "gens", "seed", "workers", "csv", "json", "backends", "cellworkers",
			"reps", "objsets", "workloads", "warmstart", "stats", "islands", "migrate-every", "migrate-k"), camp, ""},
		{"campaign checkpointed", set("campaign", "checkpoint-dir", "checkpoint-every", "halt-after-checkpoints"),
			ckpt(empty, false, 3), ""},
		{"campaign resume", set("campaign", "checkpoint-dir", "resume"), ckpt(withManifest, true, 0), ""},
		{"distribute", set("distribute", "checkpoint-dir", "nw", "json", "csv"), distribute(empty, 0), ""},

		// Worker and eval allow-lists.
		{"worker nw", set("worker", "nw"), worker, "-nw does not apply in -worker mode"},
		{"worker campaign", set("worker", "campaign"), worker, "-campaign does not apply in -worker mode"},
		{"worker first sorted", set("worker", "seed", "exp"), worker, "-exp does not apply in -worker mode"},
		{"eval pop", set("eval", "genome", "pop"), eval, "-pop does not apply in -eval mode"},
		{"eval csv", set("eval", "genome", "csv"), eval, "-csv does not apply in -eval mode"},
		{"eval halt", set("eval", "genome", "halt-after-checkpoints"), eval, "-halt-after-checkpoints does not apply in -eval mode"},

		// Eval-only flags elsewhere.
		{"genome in suite", set("genome"), suite("all"), "-genome only applies in -eval mode"},
		{"backend in suite", set("backend"), suite("all"), "-backend only applies in -eval mode"},
		{"workload in campaign", set("campaign", "workload"), camp, "-workload only applies in -eval mode"},

		// Suite flags in campaign mode.
		{"exp in campaign", set("campaign", "exp"), camp, "-exp does not apply in -campaign mode"},
		{"seeds in campaign", set("campaign", "seeds"), camp, "-seeds does not apply in -campaign mode"},

		// Flags an experiment never reads.
		{"table1 csv", set("exp", "csv"), suite("table1"), "-csv does not apply to -exp table1"},
		{"table1 seeds", set("exp", "seeds"), suite("table1"), "-seeds does not apply to -exp table1"},
		{"table1 pop", set("exp", "pop"), suite("table1"), "-pop does not apply to -exp table1"},
		{"app nw", set("exp", "nw"), suite("app"), "-nw does not apply to -exp app"},
		{"app gens", set("exp", "gens"), suite("app"), "-gens does not apply to -exp app"},
		{"sensitivity seed", set("exp", "seed"), suite("sensitivity"), "-seed does not apply to -exp sensitivity"},
		{"sensitivity workers", set("exp", "workers"), suite("sensitivity"), "-workers does not apply to -exp sensitivity"},
		{"convergence csv", set("exp", "csv"), suite("convergence"), "-csv does not apply to -exp convergence"},
		{"convergence workers", set("exp", "workers"), suite("convergence"), "-workers does not apply to -exp convergence"},
		{"convergence seeds", set("exp", "seeds"), suite("convergence"), "-seeds does not apply to -exp convergence"},
		{"robustness csv", set("exp", "csv"), suite("robustness"), "-csv does not apply to -exp robustness"},
		{"all seeds", set("seeds"), suite("all"), "-seeds does not apply to -exp all"},
		{"table2 seeds", set("exp", "seeds"), suite("table2"), "-seeds does not apply to -exp table2"},
		{"unknown exp", set("exp"), suite("tabel2"), `unknown experiment "tabel2"`},

		// Checkpoint dependencies.
		{"resume without dir", set("campaign", "resume"), ckpt("", true, 0), "-resume needs -checkpoint-dir"},
		{"halt without dir", set("campaign", "halt-after-checkpoints"), ckpt("", false, 2), "-halt-after-checkpoints needs -checkpoint-dir"},
		{"every without dir", set("campaign", "checkpoint-every"), camp, "-checkpoint-every needs -checkpoint-dir"},
		{"resume without manifest", set("campaign", "checkpoint-dir", "resume"), ckpt(empty, true, 0), "-resume: no campaign manifest"},

		// -distribute dependencies.
		{"distribute without dir", set("distribute"), distribute("", 0), "-distribute needs -checkpoint-dir"},
		{"distribute halt", set("distribute", "checkpoint-dir", "halt-after-checkpoints"), distribute(empty, 1), "-halt-after-checkpoints is a -worker flag"},
		{"distribute cellworkers", set("distribute", "checkpoint-dir", "cellworkers"), distribute(empty, 0), "-cellworkers does not apply with -distribute"},
	}
	for _, name := range campaignOnly {
		cases = append(cases, tc{"suite " + name, set(name), suite("all"), "-" + name + " does not apply outside -campaign mode"})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkFlags(c.set, c.mode)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.want == "":
			case err == nil:
				t.Fatalf("accepted, want a usage error containing %q", c.want)
			case !cliutil.IsUsage(err):
				t.Fatalf("error %v is not a usage error (exit status 2)", err)
			case !strings.Contains(err.Error(), c.want):
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}
