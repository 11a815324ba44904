// Command mitosis-benchmark is the repository benchmark. It runs one
// workload of the simulator as a closed loop — one job at a time from a
// single process, using at most two host workers — and prints every
// metric as a "workload metric value unit" line, ending with one JSON
// result line:
//
//	go run . -workload multisocket -seed 1 -seconds 26
//	go run . -workload churn -trace 1        # per-layer metrics and spans
//	go run .                                 # every workload, one child each
//	go run . -compare base.jsonl head.jsonl  # e2e medians against bounds
//
// An untraced run reports the end-to-end metrics of BENCHMARK.json; a
// traced run (-trace 1, or -trace DIR) reports its per-layer metrics and
// writes spans.jsonl and layers.json. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, and perLayer those a
// traced run reports; BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"sim_ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"mitosis.boot_ms", "ms"},
	{"mitosis.reset_ms", "ms"},
	{"mitosis.worker_speedup", "x"},
	{"workloads.round_us_p50", "us"},
	{"workloads.round_us_p99", "us"},
	{"hw.access_ns_per_op", "ns"},
	{"hw.barrier_ns_per_round", "ns"},
	{"translate.walk_ns.x8664", "ns"},
	{"translate.walk_ns.x8664la57", "ns"},
	{"translate.walk_ns.victima", "ns"},
	{"tlb.lookup_ns", "ns"},
	{"mmucache.psc_lookup_ns", "ns"},
	{"mmucache.llc_access_ns", "ns"},
	{"numa.dram_cost_ns", "ns"},
	{"mem.alloc_ns", "ns"},
	{"mem.free_ns", "ns"},
	{"kernel.fault_us_p50", "us"},
	{"kernel.fault_us_p99", "us"},
	{"kernel.populate_ns_per_page", "ns"},
	{"kernel.exit_us", "us"},
	{"kernel.policy_tick_us", "us"},
	{"kernel.tier_tick_us", "us"},
	{"kernel.fault_tick_us", "us"},
	{"trace_overhead_pct", "%"},
}

// Repetition counts. A timed loop runs at least minReps jobs, each after a
// batch of set-up jobs lasting at least setupBatch, so a set-up of a
// millisecond still gets a steady median. The scaling metric runs
// scalingReps jobs a side.
const (
	minReps     = 3
	setupBatch  = 100 * time.Millisecond
	scalingReps = 3
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	reps     int
	trace    string
	out      string
	quick    bool
}

// traceDir returns where a traced run writes its files, or "" when the
// run is untraced.
func (c config) traceDir() string {
	switch c.trace {
	case "", "0":
		return ""
	case "1":
		return filepath.Join(".bench_build", "trace", c.workload)
	}
	return c.trace
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mitosis-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "all", "workload to run: multisocket, migration, churn, fleet, or all")
	fs.Int64Var(&c.seed, "seed", 42, "seed the workload inputs are made from")
	fs.Float64Var(&c.seconds, "seconds", 26, "time budget of the timed loop, in seconds")
	fs.IntVar(&c.reps, "reps", 0, "timed jobs to run; 0 runs jobs until -seconds have passed (at least 3)")
	fs.StringVar(&c.trace, "trace", "0", "0: end-to-end metrics; 1 or a directory: per-layer metrics and a trace")
	fs.StringVar(&c.out, "out", "", "append the run's record as one JSON line to this file")
	fs.BoolVar(&c.quick, "quick", false, "reduced sizes for smoke tests; numbers are not comparable")
	compare := fs.Bool("compare", false, "compare two -out files: -compare BASE HEAD")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	}
	if c.workload == "all" {
		return runAll(c, stdout, stderr)
	}
	w := workloadByName(c.workload)
	if w == nil {
		fmt.Fprintf(stderr, "unknown workload %q\n", c.workload)
		return 2
	}
	rec, err := runWorkload(c, w, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", c.workload, err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// hostMeta says which host and build produced a record.
type hostMeta struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
}

func host() hostMeta {
	h := hostMeta{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

// record is everything one run measured; -out appends it as a JSON line.
type record struct {
	Host      hostMeta             `json:"host"`
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Traced    bool                 `json:"traced"`
	Reps      int                  `json:"reps"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	SimDigest string               `json:"sim_digest"`
	Metrics   map[string]metric    `json:"metrics"`
	Info      map[string]metric    `json:"info,omitempty"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session runs the jobs of one run and checks each against the first:
// every job must succeed, pass its checks and reproduce the first job's
// simulated outputs exactly.
type session struct {
	w         *workload
	attempted int
	failures  []string
	first     *jobResult
	digest    string
}

func (s *session) fail(err error) {
	s.failures = append(s.failures, err.Error())
}

// clean makes every job, set-up jobs included, start from the state of a
// fresh process: it collects garbage twice, which also empties the
// program's sync.Pool-backed system pools, returns the freed memory to the
// OS, and restarts the peak-RSS count, so the peak a job reports is its
// own.
func clean() {
	runtime.GC()
	debug.FreeOSMemory() // the second collection
	resetPeakRSS()
}

// job runs one job and returns its result, its host wall time, and whether
// it passed.
func (s *session) job(p params) (jobResult, time.Duration, bool) {
	s.attempted++
	clean()
	t0 := time.Now()
	r, err := s.w.job(p)
	wall := time.Since(t0)
	r.peakRSSMB = peakRSSMB()
	if err != nil {
		s.fail(err)
		return r, wall, false
	}
	if r.check == nil && s.first != nil {
		if d := r.digest(); d != s.digest {
			r.check = fmt.Errorf("sim_digest %s differs from the first job's %s", d, s.digest)
		} else if s.first.churn != nil && !s.first.churn.DeterministicEquals(r.churn) {
			r.check = errors.New("churn result differs from the first job's")
		}
	}
	if s.first == nil {
		s.first, s.digest = &r, r.digest()
	}
	if r.check != nil {
		s.fail(r.check)
		return r, wall, false
	}
	return r, wall, true
}

// timed runs one job between two host-pace readings. It returns the
// result, the wall time in seconds, the mean of the two paces, and whether
// the job passed.
func (s *session) timed(p params) (r jobResult, wall, pace float64, ok bool) {
	before := hostPace()
	r, d, ok := s.job(p)
	return r, d.Seconds(), (before + hostPace()) / 2, ok
}

// setups runs set-up jobs for at least setupBatch, and at least one, and
// returns their wall times in seconds.
func (s *session) setups(p params) []float64 {
	var walls []float64
	for batch := time.Now(); len(walls) == 0 || time.Since(batch) < setupBatch; {
		s.attempted++
		clean()
		t0 := time.Now()
		err := s.w.setup(p)
		wall := time.Since(t0)
		if err != nil {
			s.fail(fmt.Errorf("setup: %w", err))
			return walls
		}
		walls = append(walls, wall.Seconds())
	}
	return walls
}

// A host-pace reading runs paceReadings passes of paceSteps kernel steps
// on each thread: about 12ms.
const (
	paceSteps    = 1_500_000
	paceReadings = 3
	// paceRef is the reference time of a kernel step in nanoseconds: a
	// round number near what one thread of the 2-CPU host this benchmark
	// was defined on measures when the host is not slowed down.
	paceRef = 2.5
	// paceExp is how steeply the simulator slows with the kernel: on the
	// host this benchmark was defined on, the slope of log job time over
	// log kernel slowdown, from medians of eight jobs at a time, was
	// 2.25–2.52 on the four workloads (README.md, Host pace).
	paceExp = 2.5
)

var paceSink atomic.Uint64

// paceKernel is integer work with three independent dependency chains (a
// xorshift and two multiply-add chains) and no memory traffic.
func paceKernel(x uint64) uint64 {
	a, b, sum := x, ^x, uint64(0)
	for range paceSteps {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		sum += x ^ a>>1 ^ b
	}
	return sum
}

// hostPace reads how much slower than the reference host this host runs
// the simulator now. The pace kernel runs on every CPU the benchmark may
// use at once; each thread's fastest pass counts, so a thread preempted for
// a moment does not, and the slowest thread's nanoseconds per step over
// paceRef is the kernel's slowdown. Shared hosts slow every program down
// together, by up to 2x for tens of seconds at a time, and on the host this
// benchmark was defined on they slowed the simulator by about the kernel's
// slowdown to the power paceExp, so that power is the pace. A wall time
// divided by the median pace read while it ran is in reference seconds,
// which stay comparable across such periods, while a slower simulator still
// reads slower: the kernel is harness code no change to the program moves.
// A process competing for the CPUs inside the host inflates the reading
// beyond the simulator's slowdown, so nothing else should run meanwhile.
// README.md says how the kernel and the power were chosen, and that they
// were fitted on one host only.
func hostPace() float64 {
	slowdowns := make([]float64, min(2, runtime.NumCPU()))
	var wg sync.WaitGroup
	for i := range slowdowns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			best := int64(math.MaxInt64)
			for r := range paceReadings {
				t0 := time.Now()
				paceSink.Add(paceKernel(uint64(i*paceReadings+r) + 1))
				best = min(best, time.Since(t0).Nanoseconds())
			}
			slowdowns[i] = float64(best) / paceSteps / paceRef
		}()
	}
	wg.Wait()
	return math.Pow(slices.Max(slowdowns), paceExp)
}

func runWorkload(c config, w *workload, stdout io.Writer) (*record, error) {
	traced := c.traceDir() != ""
	h := host()
	fmt.Fprintf(stdout, "# host cpus=%d gomaxprocs=%d go=%s revision=%s dirty=%v\n",
		h.CPUs, h.GOMAXPROCS, h.Go, h.Revision, h.Dirty)
	fmt.Fprintf(stdout, "# run workload=%s seed=%d trace=%v seconds=%g reps=%d quick=%v\n",
		w.name, c.seed, traced, c.seconds, c.reps, c.quick)
	s := &session{w: w}
	p := params{seed: c.seed, quick: c.quick}
	rec := &record{Host: h, Workload: w.name, Seed: c.seed, Traced: traced, Info: map[string]metric{}}
	var err error
	if traced {
		err = tracedRun(c, s, p, rec)
	} else {
		err = untracedRun(c, s, p, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed, rec.Failures = s.attempted, len(s.failures), s.failures
	rec.Correct = rec.Failed == 0 && s.first != nil
	rec.SimDigest = s.digest
	rec.Info["failed_frac"] = metric{ratio(float64(rec.Failed), float64(rec.Attempted)), "ratio"}
	if s.first != nil {
		for name, m := range s.first.info {
			rec.Info[name] = m
		}
	}

	for _, f := range s.failures {
		fmt.Fprintf(stdout, "# FAILED %s\n", f)
	}
	fmt.Fprintf(stdout, "%s sim_digest %s sha256\n", w.name, rec.SimDigest)
	fmt.Fprintf(stdout, "%s reps %d count\n", w.name, rec.Reps)
	for _, name := range sortedKeys(rec.Info) {
		printMetric(stdout, w.name, name, rec.Info[name])
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.name]
		if !ok {
			rec.Correct = false
			fmt.Fprintf(stdout, "# FAILED metric %s not produced\n", d.name)
			continue
		}
		printMetric(stdout, w.name, d.name, m)
	}
	if c.out != "" {
		if err := appendRecord(c.out, rec); err != nil {
			return nil, err
		}
	}
	b, err := json.Marshal(result{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return rec, nil
}

func printMetric(w io.Writer, workload, name string, m metric) {
	fmt.Fprintf(w, "%s %s %s %s\n", workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
}

// untracedRun measures the end-to-end metrics: one warm-up job, then, until
// the budget is spent, a batch of set-up jobs and a timed job in turn, each
// between two host-pace readings. Set-up jobs run throughout the run rather
// than before it, so the host's speed swings of a second or two move their
// median no more than the timed jobs'.
func untracedRun(c config, s *session, p params, rec *record) error {
	s.job(p) // warm-up: caches and lazy set-up fill before timing
	var rates, walls, paces, rss, cellMS, setupWalls, setupPaces []float64
	start := time.Now()
	budget := time.Duration(c.seconds * float64(time.Second))
	before := hostPace()
	for i := 0; ; i++ {
		if c.reps > 0 && i >= c.reps || c.reps <= 0 && i >= minReps && time.Since(start) >= budget {
			break
		}
		sw := s.setups(p)
		mid := hostPace()
		r, d, ok := s.job(p)
		after := hostPace()
		if len(sw) > 0 {
			setupWalls = append(setupWalls, sw...)
			setupPaces = append(setupPaces, (before+mid)/2)
		}
		before = after
		if !ok {
			continue
		}
		wall := d.Seconds()
		pace := (mid + after) / 2
		rates = append(rates, float64(r.simOps)/wall)
		walls = append(walls, wall)
		paces = append(paces, pace)
		rss = append(rss, r.peakRSSMB)
		cellMS = append(cellMS, r.cellMS...)
	}
	rec.Reps = len(rates)
	rec.Samples = map[string][]float64{
		"sim_ops_per_wall_s": rates, "wall_s": walls, "host_pace": paces, "peak_rss_mb": rss,
		"setup_wall_s": setupWalls, "setup_host_pace": setupPaces,
	}
	// A single pace reading is noisier than the host's speed drifts within
	// a run, so each phase of the run — set-up, timed jobs — is divided by
	// the median of the paces read during it.
	rec.Metrics = map[string]metric{}
	if len(rates) > 0 {
		rec.Metrics["sim_ops_per_s"] = metric{median(rates) * median(paces), "1/s"}
		rec.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
		rec.Info["sim_ops_per_wall_s"] = metric{median(rates), "1/s"}
		rec.Info["host_pace"] = metric{median(paces), "x"}
	}
	if len(setupPaces) > 0 {
		rec.Metrics["setup_s"] = metric{median(setupWalls) / median(setupPaces), "s"}
		rec.Info["setup_wall_s"] = metric{median(setupWalls), "s"}
	}
	// Host time of single sweep cells: the fleet's latency view.
	if v, ok := percentile(cellMS, 50); ok {
		rec.Info["cell_ms_p50"] = metric{v, "ms"}
	}
	if v, ok := percentile(cellMS, 99); ok {
		rec.Info["cell_ms_p99"] = metric{v, "ms"}
	}
	return nil
}

// tracedRun measures the per-layer metrics: untraced jobs at the default
// and at one host worker (the scaling metric and the untraced baseline of
// the tracing overhead), one traced job, and the layer replay.
func tracedRun(c config, s *session, p params, rec *record) error {
	tr := newTracer()
	s.job(p) // warm-up
	var walls, serialWalls []float64
	for i := 0; i < p.pick(scalingReps, 1); i++ {
		if _, wall, pace, ok := s.timed(p); ok {
			walls = append(walls, wall/pace)
		}
	}
	tp := p
	tp.tr = tr
	tr.job = "job"
	tp.parent = tr.open("job", 0)
	_, wall, pace, _ := s.timed(tp)
	tracedSec := wall / pace
	tr.close(tp.parent)
	sp := p
	sp.serial = true
	for i := 0; i < p.pick(scalingReps, 1); i++ {
		if _, wall, pace, ok := s.timed(sp); ok {
			serialWalls = append(serialWalls, wall/pace)
		}
	}
	rec.Reps = len(walls)

	rp := p
	rp.tr = tr
	tr.job = "replay"
	values, err := replay(rp, s.w.replay(p))
	if err != nil {
		s.fail(fmt.Errorf("replay: %w", err))
		values = map[string]float64{}
	}
	ms := func(name string) {
		if d := tr.durations("mitosis." + name); len(d) > 0 {
			values["mitosis."+name+"_ms"] = median(d) / 1e3
		}
	}
	ms("boot")
	ms("reset")
	if d := tr.durations("kernel.exit"); len(d) > 0 {
		values["kernel.exit_us"] = median(d)
	}
	for _, ev := range []struct{ event, metric string }{
		{"workloads.round", "workloads.round_us"},
		{"kernel.fault", "kernel.fault_us"},
	} {
		for _, pc := range []float64{50, 99} {
			if v, ok := percentile(tr.events[ev.event], pc); ok {
				values[fmt.Sprintf("%s_p%g", ev.metric, pc)] = v
			}
		}
	}
	if len(walls) > 0 && len(serialWalls) > 0 {
		values["mitosis.worker_speedup"] = median(serialWalls) / median(walls)
	}
	if len(walls) > 0 {
		values["trace_overhead_pct"] = (tracedSec/median(walls) - 1) * 100
	}

	rec.Metrics = map[string]metric{}
	for _, d := range perLayer {
		if v, ok := values[d.name]; ok {
			rec.Metrics[d.name] = metric{v, d.unit}
		}
	}
	return tr.write(c.traceDir(), values)
}

var vmHWM = regexp.MustCompile(`(?m)^VmHWM:\s+(\d+) kB`)

// resetPeakRSS restarts the kernel's peak resident set size count of the
// process at its current size. It is Linux only; elsewhere the peak stays
// the process's peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, as above
}

// peakRSSMB is the process's peak resident set size since resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		if m := vmHWM.FindSubmatch(b); m != nil {
			if kb, err := strconv.ParseFloat(string(m[1]), 64); err == nil {
				return kb / (1 << 10)
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20) // bytes
	}
	return float64(ru.Maxrss) / (1 << 10) // kilobytes
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a child process of its own, so each peak
// RSS is its workload's alone, and prints a combined result line.
func runAll(c config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloadTable {
		args := []string{
			"-workload", w.name, "-seed", strconv.FormatInt(c.seed, 10),
			"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-reps", strconv.Itoa(c.reps),
			"-out", c.out, "-quick=" + strconv.FormatBool(c.quick), "-trace", c.trace,
		}
		if dir := c.traceDir(); dir != "" && c.trace != "1" {
			args[len(args)-1] = filepath.Join(dir, w.name)
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		var r result
		if err := json.Unmarshal(lastLine(buf.Bytes()), &r); err != nil {
			fmt.Fprintf(stderr, "%s: no result line (%v)\n", w.name, runErr)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for name, m := range r.Metrics {
			all.Metrics[w.name+"."+name] = m
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !all.Correct {
		return 1
	}
	return 0
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = []byte(line)
		}
	}
	return last
}
