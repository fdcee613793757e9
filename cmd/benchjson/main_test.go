package main

import (
	"bufio"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func doc(t *testing.T, text string) *document {
	t.Helper()
	d, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkEvaluateKernel-8   100   22000 ns/op   0 B/op   0 allocs/op
BenchmarkGeneration-8       100   1900000 ns/op   0 B/op   0 allocs/op
BenchmarkOther-8            100   500 ns/op   16 B/op   1 allocs/op
`

func TestParseBenchLines(t *testing.T) {
	d := doc(t, sampleBench)
	if len(d.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(d.Benchmarks))
	}
	if d.Environment["goos"] != "linux" || d.Environment["pkg"] != "repro" {
		t.Fatalf("environment = %v", d.Environment)
	}
	k := d.Benchmarks[0]
	if k.Name != "BenchmarkEvaluateKernel-8" || k.Metrics["ns/op"] != 22000 || k.Metrics["allocs/op"] != 0 {
		t.Fatalf("first record = %+v", k)
	}
}

func TestEnvironmentCores(t *testing.T) {
	for _, tc := range []struct {
		name, text, want string
	}{
		{"suffix", sampleBench, "8"},
		{"no suffix", "BenchmarkGeneration   100   1900000 ns/op\n", "1"},
		{"cpu list", "BenchmarkGeneration-4   100   1 ns/op\nBenchmarkGeneration   100   2 ns/op\n" +
			"BenchmarkSub/workers=2-4   100   3 ns/op\nBenchmarkSub/workers=2-2   100   4 ns/op\n", "1,2,4"},
	} {
		d := doc(t, tc.text)
		if got := d.Environment["gomaxprocs"]; got != tc.want {
			t.Errorf("%s: gomaxprocs = %q, want %q", tc.name, got, tc.want)
		}
		if got, want := d.Environment["num_cpu"], strconv.Itoa(runtime.NumCPU()); got != want {
			t.Errorf("%s: num_cpu = %q, want %q", tc.name, got, want)
		}
	}
}

func TestZeroAllocGate(t *testing.T) {
	d := doc(t, sampleBench)
	if err := checkZeroAllocs(d, `BenchmarkEvaluateKernel$|BenchmarkGeneration$`, ""); err != nil {
		t.Fatalf("clean gate failed: %v", err)
	}
	if err := checkZeroAllocs(d, `BenchmarkOther$`, ""); err == nil {
		t.Fatal("1 allocs/op passed the zero-alloc gate")
	}
	if err := checkZeroAllocs(d, `BenchmarkRenamed$`, ""); err == nil {
		t.Fatal("empty match passed the zero-alloc gate")
	}
}

func TestZeroAllocExemption(t *testing.T) {
	d := doc(t, sampleBench)
	// BenchmarkOther allocates, but the exemption carves it out of a
	// broad require pattern.
	if err := checkZeroAllocs(d, `Benchmark`, `BenchmarkOther$`); err != nil {
		t.Fatalf("exempted allocator failed the gate: %v", err)
	}
	// Without the exemption the same broad pattern must fail.
	if err := checkZeroAllocs(d, `Benchmark`, ""); err == nil {
		t.Fatal("allocating benchmark passed a broad zero-alloc gate")
	}
	// A stale exemption matching nothing fails, like the other
	// pattern flags.
	if err := checkZeroAllocs(d, `Benchmark`, `BenchmarkRenamed$`); err == nil {
		t.Fatal("no-match exemption passed")
	}
	// An exemption must not mask the require pattern entirely.
	if err := checkZeroAllocs(d, `BenchmarkOther$`, `BenchmarkOther$`); err == nil {
		t.Fatal("fully-exempted gate passed instead of failing as matched-nothing")
	}
}

func TestRegressionGate(t *testing.T) {
	base := doc(t, sampleBench)
	gate := `BenchmarkEvaluateKernel$|BenchmarkGeneration$`

	t.Run("within-budget", func(t *testing.T) {
		cur := doc(t, strings.ReplaceAll(sampleBench, "22000 ns/op", "24000 ns/op"))
		if err := checkRegression(cur, base, gate, 0.15); err != nil {
			t.Fatalf("+9%% failed a 15%% budget: %v", err)
		}
	})
	t.Run("over-budget", func(t *testing.T) {
		cur := doc(t, strings.ReplaceAll(sampleBench, "22000 ns/op", "26000 ns/op"))
		err := checkRegression(cur, base, gate, 0.15)
		if err == nil || !strings.Contains(err.Error(), "BenchmarkEvaluateKernel") {
			t.Fatalf("+18%% passed a 15%% budget: %v", err)
		}
	})
	t.Run("ungated-regression-ignored", func(t *testing.T) {
		cur := doc(t, strings.ReplaceAll(sampleBench, "500 ns/op", "5000 ns/op"))
		if err := checkRegression(cur, base, gate, 0.15); err != nil {
			t.Fatalf("ungated benchmark tripped the gate: %v", err)
		}
	})
	t.Run("missing-from-baseline", func(t *testing.T) {
		cur := doc(t, sampleBench+"BenchmarkNew-8   100   10 ns/op\n")
		if err := checkRegression(cur, base, gate+`|BenchmarkNew$`, 0.15); err == nil {
			t.Fatal("benchmark absent from the baseline passed the gate")
		}
	})
	t.Run("min-of-samples", func(t *testing.T) {
		// Three -count samples: two noisy outliers over budget, one
		// clean. The minimum represents the run, so the gate passes.
		cur := doc(t, sampleBench+
			"BenchmarkEvaluateKernel-8   100   30000 ns/op\n"+
			"BenchmarkEvaluateKernel-8   100   29000 ns/op\n")
		if err := checkRegression(cur, base, gate, 0.15); err != nil {
			t.Fatalf("noisy samples above a clean minimum tripped the gate: %v", err)
		}
	})
	t.Run("missing-from-current", func(t *testing.T) {
		// BenchmarkGeneration exists in the baseline but vanished from
		// the run: the gate must fail rather than shrink its coverage.
		cur := doc(t, strings.ReplaceAll(sampleBench,
			"BenchmarkGeneration-8       100   1900000 ns/op   0 B/op   0 allocs/op\n", ""))
		err := checkRegression(cur, base, gate, 0.15)
		if err == nil || !strings.Contains(err.Error(), "BenchmarkGeneration") {
			t.Fatalf("benchmark dropped from the run passed the gate: %v", err)
		}
	})
	t.Run("matches-nothing", func(t *testing.T) {
		if err := checkRegression(base, base, `BenchmarkRenamed$`, 0.15); err == nil {
			t.Fatal("empty match passed the regression gate")
		}
	})
	t.Run("gate-required", func(t *testing.T) {
		if err := checkRegression(base, base, "", 0.15); err == nil {
			t.Fatal("missing -regress-gate accepted")
		}
	})
}

func TestSpeedupGate(t *testing.T) {
	// Scaling shape: 1 worker at 1.9ms, 2 workers at 1.0ms = 1.9x.
	d := doc(t, `goos: linux
BenchmarkCampaignDistributed/workers=1-8   10   1900000 ns/op
BenchmarkCampaignDistributed/workers=2-8   10   1000000 ns/op
`)
	fast, slow := "BenchmarkCampaignDistributed/workers=2", "BenchmarkCampaignDistributed/workers=1"
	if err := checkSpeedup(d, fast+"<"+slow+"@1.7"); err != nil {
		t.Fatalf("1.9x speedup failed a 1.7x gate: %v", err)
	}
	if err := checkSpeedup(d, fast+"<"+slow+"@2.0"); err == nil {
		t.Fatal("1.9x speedup passed a 2.0x gate")
	}
	if err := checkSpeedup(d, fast+"<BenchmarkRenamed@1.7"); err == nil {
		t.Fatal("missing benchmark passed the speedup gate")
	}
	if err := checkSpeedup(d, fast+"<"+slow); err == nil {
		t.Fatal("triple without a factor accepted")
	}
	if err := checkSpeedup(d, fast+"<"+slow+"@0.5"); err == nil {
		t.Fatal("factor <= 1 accepted")
	}
}

func TestBaseName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkGeneration-8": "BenchmarkGeneration",
		"BenchmarkGeneration":   "BenchmarkGeneration",
		"BenchmarkFront2D-16":   "BenchmarkFront2D",
		"BenchmarkAblation-x":   "BenchmarkAblation-x",
		"BenchmarkSub/case-8":   "BenchmarkSub/case",
	} {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}
