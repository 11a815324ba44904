package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesHarness checks that BENCHMARK.json and the harness agree
// on every workload and metric, and that every name is well formed.
func TestSpecMatchesHarness(t *testing.T) {
	spec := loadTestSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloadTable) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloadTable))
	}
	type def struct{ name, unit string }
	var e2e, layer []def
	// The bounds README.md's Baseline derives from measured spreads; a
	// bound changes only with new measurements there.
	bounds := map[string]float64{"sim_ops_per_s": 0.20, "setup_s": 0.25, "peak_rss_mb": 0.10}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, def{m.Name, m.Unit})
		names = append(names, m.Name)
		if m.Bound != bounds[m.Name] {
			t.Errorf("%s: bound %v, README.md justifies %v", m.Name, m.Bound, bounds[m.Name])
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, def{m.Name, m.Unit})
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].name != want[i].name || got[i].unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, harness %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
}

// parseOutput returns the "workload metric value unit" lines by metric
// name (value and unit as printed) and the decoded last line.
func parseOutput(t *testing.T, workload string, out []byte) (map[string][2]string, result) {
	t.Helper()
	lines := map[string][2]string{}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		last = line
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == workload {
			lines[f[1]] = [2]string{f[2], f[3]}
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatalf("last line %q is not a result: %v", last, err)
	}
	return lines, r
}

// TestSmoke runs every workload at reduced size, untraced and traced, and
// checks that every metric BENCHMARK.json names is printed with its unit,
// that no job failed, and that the traced run wrote its trace.
func TestSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			for _, traced := range []bool{false, true} {
				args := []string{"-workload", w.Name, "-quick", "-reps", "1", "-seed", "7"}
				want := map[string]string{}
				if traced {
					args = append(args, "-trace", dir)
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("%v: exit %d\n%s\n%s", args, code, stdout.String(), stderr.String())
				}
				lines, r := parseOutput(t, w.Name, stdout.Bytes())
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("traced=%v: result %+v", traced, r)
				}
				if got := lines["failed_frac"]; got != [2]string{"0", "ratio"} {
					t.Errorf("traced=%v: failed_frac line %v, want 0 ratio", traced, got)
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("traced=%v: result has %d metrics, want %d", traced, len(r.Metrics), len(want))
				}
				for name, unit := range want {
					if got, ok := lines[name]; !ok || got[1] != unit {
						t.Errorf("traced=%v: metric %s printed as %v, want unit %s", traced, name, got, unit)
					}
					if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("traced=%v: result metric %s = %+v, want unit %s", traced, name, m, unit)
					}
				}
			}
			for _, f := range []string{"spans.jsonl", "layers.json"} {
				if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
					t.Errorf("trace file %s missing or empty: %v", f, err)
				}
			}
		})
	}
}

func TestPercentileOmitsThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 50, 0, false}, // rank 10 leaves 9 beyond
		{20, 50, 10, true}, // rank 10 leaves 10 beyond
		{999, 99, 0, false},
		{1000, 99, 990, true},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedianQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 4 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "cell", Start: 30, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Name: "cell", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "round", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	// job: 100 - (10..50 = 40) - (90..100 = 10) = 50
	for id, want := range map[int]int64{1: 50, 2: 25, 3: 20, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		head  []float64
		lower bool
		want  string
	}{
		{scale(1.0), true, "ok"},
		{scale(1.3), true, "REGRESSION"},
		{scale(0.7), false, "REGRESSION"},
		{scale(0.7), true, "better"},
		{scale(1.09), true, "unresolved"}, // quartiles straddle the 10% bound
	} {
		if _, got := verdict(base, tc.head, tc.lower, 0.10); got != tc.want {
			t.Errorf("verdict(head %.0f.., lower=%v) = %s, want %s", tc.head[0], tc.lower, got, tc.want)
		}
	}
}
