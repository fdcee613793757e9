package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The textual task-graph format is line oriented:
//
//	# comment
//	task <name> <exec-cycles>
//	edge <name> <src-task> <dst-task> <volume-bits>
//	map  <task> <core>           (optional mapping block)
//
// Tasks are referred to by name in edge and map lines; declaration
// order fixes their indices. The format is what cmd/wagen emits and
// cmd/onocsim and cmd/wadate consume.

// Format writes the graph (and optional mapping, if non-nil) in the
// textual format.
func Format(w io.Writer, g *TaskGraph, m Mapping) error {
	for _, t := range g.Tasks {
		if _, err := fmt.Fprintf(w, "task %s %g\n", t.Name, t.ExecCycles); err != nil {
			return err
		}
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(w, "edge %s %s %s %g\n",
			e.Name, g.Tasks[e.Src].Name, g.Tasks[e.Dst].Name, e.VolumeBits); err != nil {
			return err
		}
	}
	for t, p := range m {
		if _, err := fmt.Fprintf(w, "map %s %d\n", g.Tasks[t].Name, p); err != nil {
			return err
		}
	}
	return nil
}

// FormatString renders Format into a string.
func FormatString(g *TaskGraph, m Mapping) string {
	var sb strings.Builder
	_ = Format(&sb, g, m) // strings.Builder never errors
	return sb.String()
}

// Parse reads a graph (and mapping, which may be empty) from the
// textual format.
func Parse(r io.Reader) (*TaskGraph, Mapping, error) {
	g := &TaskGraph{}
	index := make(map[string]int)
	mapped := make(map[int]int)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		fail := func(msg string) error {
			return fmt.Errorf("graph: line %d: %s: %q", lineNo, msg, line)
		}
		switch fields[0] {
		case "task":
			if len(fields) != 3 {
				return nil, nil, fail("want 'task <name> <cycles>'")
			}
			if _, dup := index[fields[1]]; dup {
				return nil, nil, fail("duplicate task name")
			}
			exec, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, nil, fail("bad execution time")
			}
			index[fields[1]] = len(g.Tasks)
			g.Tasks = append(g.Tasks, Task{Name: fields[1], ExecCycles: exec})
		case "edge":
			if len(fields) != 5 {
				return nil, nil, fail("want 'edge <name> <src> <dst> <bits>'")
			}
			src, okS := index[fields[2]]
			dst, okD := index[fields[3]]
			if !okS || !okD {
				return nil, nil, fail("edge references unknown task")
			}
			vol, err := strconv.ParseFloat(fields[4], 64)
			if err != nil {
				return nil, nil, fail("bad volume")
			}
			g.Edges = append(g.Edges, Edge{Name: fields[1], Src: src, Dst: dst, VolumeBits: vol})
		case "map":
			if len(fields) != 3 {
				return nil, nil, fail("want 'map <task> <core>'")
			}
			t, ok := index[fields[1]]
			if !ok {
				return nil, nil, fail("map references unknown task")
			}
			core, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, nil, fail("bad core id")
			}
			if _, dup := mapped[t]; dup {
				return nil, nil, fail("task mapped twice")
			}
			mapped[t] = core
		default:
			return nil, nil, fail("unknown directive")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	var m Mapping
	if len(mapped) > 0 {
		if len(mapped) != g.NumTasks() {
			missing := make([]string, 0)
			for t := range g.Tasks {
				if _, ok := mapped[t]; !ok {
					missing = append(missing, g.Tasks[t].Name)
				}
			}
			sort.Strings(missing)
			return nil, nil, fmt.Errorf("graph: mapping incomplete, missing %v", missing)
		}
		m = make(Mapping, g.NumTasks())
		for t, p := range mapped {
			m[t] = p
		}
	}
	return g, m, nil
}
