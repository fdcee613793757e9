package cliutil

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestUsageErrorExitStatus(t *testing.T) {
	if got := ExitStatus(Usagef("bad flag")); got != 2 {
		t.Fatalf("usage error exit status = %d, want 2", got)
	}
	if got := ExitStatus(fmt.Errorf("runtime failure")); got != 1 {
		t.Fatalf("runtime error exit status = %d, want 1", got)
	}
	// Wrapped usage errors must still map to 2: main wraps parse
	// errors with context before exiting.
	wrapped := fmt.Errorf("campaign: %w", Usagef("bad flag"))
	if got := ExitStatus(wrapped); got != 2 {
		t.Fatalf("wrapped usage error exit status = %d, want 2", got)
	}
}

func TestSplitList(t *testing.T) {
	got := SplitList(" a, b ,,c ")
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("SplitList = %v", got)
	}
	if SplitList(" , ") != nil {
		t.Fatalf("SplitList of blanks = %v, want nil", SplitList(" , "))
	}
}

func TestParseBackends(t *testing.T) {
	got, err := ParseBackends("ring,crossbar")
	if err != nil || !reflect.DeepEqual(got, []string{"ring", "crossbar"}) {
		t.Fatalf("ParseBackends = %v, %v", got, err)
	}
	for _, bad := range []string{"mesh", "", "ring,mesh"} {
		if _, err := ParseBackends(bad); err == nil || !IsUsage(err) {
			t.Fatalf("ParseBackends(%q) = %v, want usage error", bad, err)
		}
	}
}

func TestParseNWs(t *testing.T) {
	got, err := ParseNWs("4, 8,12")
	if err != nil || !reflect.DeepEqual(got, []int{4, 8, 12}) {
		t.Fatalf("ParseNWs = %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-4", "eight", ""} {
		if _, err := ParseNWs(bad); err == nil || !IsUsage(err) {
			t.Fatalf("ParseNWs(%q) = %v, want usage error", bad, err)
		}
	}
}

func TestParseObjectiveSets(t *testing.T) {
	got, err := ParseObjectiveSets("teb,te,tb")
	want := []core.ObjectiveSet{core.TimeEnergyBER, core.TimeEnergy, core.TimeBER}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseObjectiveSets = %v, %v", got, err)
	}
	for _, bad := range []string{"tx", ""} {
		if _, err := ParseObjectiveSets(bad); err == nil || !IsUsage(err) {
			t.Fatalf("ParseObjectiveSets(%q) = %v, want usage error", bad, err)
		}
	}
}
