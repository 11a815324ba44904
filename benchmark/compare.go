package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the checkout root, whether the
// harness runs from the root or from its own directory.
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// readRecords reads the JSON lines -out appended.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// verdict classifies a change of one metric on one workload from the
// parent's runs (base) to the change's runs (head), following the
// no-regression rule: a worsening beyond the bound is a regression, one
// within it is ok, and where the quartiles of the two sides straddle the
// bound the runs cannot tell, so the result is unresolved — unless every
// run of the change reads better than every run of the parent.
func verdict(base, head []float64, lowerIsBetter bool, bound float64) (change float64, status string) {
	worse := func(h, b float64) float64 {
		if lowerIsBetter {
			return (h - b) / b
		}
		return (b - h) / b
	}
	bm, hm := median(base), median(head)
	change = worse(hm, bm)
	bq1, bq3 := quartiles(base)
	hq1, hq3 := quartiles(head)
	baseBest, baseWorst, headBest, headWorst := bq1, bq3, hq1, hq3
	if !lowerIsBetter {
		baseBest, baseWorst, headBest, headWorst = bq3, bq1, hq3, hq1
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if worse(h, b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return change, "better"
	case worse(headBest, baseWorst) > bound:
		return change, "REGRESSION"
	case worse(headWorst, baseBest) > bound:
		return change, "unresolved"
	}
	return change, "ok"
}

// compareFiles prints one row per workload and end-to-end metric: each
// side's median and quartiles over its runs, the change and the verdict.
// It exits 1 when any row is a regression.
func compareFiles(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: -compare BASE HEAD (files written with -out)")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sides := make([][]record, 2)
	for i, path := range args {
		if sides[i], err = readRecords(path); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	values := func(recs []record, workload, name string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
				out = append(out, m.Value)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3] (n)\thead median [q1, q3] (n)\tworse by\tbound\tverdict")
	regressions := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			base, head := values(sides[0], w.Name, m.Name), values(sides[1], w.Name, m.Name)
			if len(base) == 0 || len(head) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t(n=%d)\t(n=%d)\t\t%.0f%%\tmissing\n", w.Name, m.Name, len(base), len(head), m.Bound*100)
				continue
			}
			change, status := verdict(base, head, m.Better == "lower", m.Bound)
			if status == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", w.Name, m.Name,
				summary(base, m.Unit), summary(head, m.Unit), change*100, m.Bound*100, status)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

func summary(xs []float64, unit string) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g %s [%.4g, %.4g] (%d)", median(xs), unit, q1, q3, len(xs))
}
