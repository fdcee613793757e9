package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The files under testdata/ were rendered by an earlier build and are
// committed, so this test pins the simulator report (analytic metrics,
// simulated timeline, Gantt chart, per-wavelength link budget) across
// changes. Regenerate a file only for an intended output change, with
// the command named in its case below.
func TestRunGolden(t *testing.T) {
	cases := []struct {
		file    string
		counts  string
		explain bool
	}{
		// go run ./cmd/onocsim -nw 8 > cmd/onocsim/testdata/paper_nw8.txt
		{"paper_nw8.txt", "1,1,1,1,1,1", false},
		// go run ./cmd/onocsim -nw 8 -explain > cmd/onocsim/testdata/paper_nw8_explain.txt
		{"paper_nw8_explain.txt", "1,1,1,1,1,1", true},
		// go run ./cmd/onocsim -nw 8 -counts 1,4,2,3,2,3 -explain > cmd/onocsim/testdata/paper_nw8_counts_explain.txt
		{"paper_nw8_counts_explain.txt", "1,4,2,3,2,3", true},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, "", 8, c.counts, "", "least-used", 1, 0, 72, c.explain); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("onocsim output differs from %s:\ngot:\n%s\nwant:\n%s", c.file, buf.Bytes(), want)
			}
		})
	}
}
