package experiments

import (
	"fmt"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
)

// hwSockets is the hardware-comparison platform's socket count: two
// sockets keep the 6-run grid small while giving replication a remote
// socket to recover walks from.
const hwSockets = 2

// HwBackends lists the translation backends the hwcmp target compares,
// default x86-64 first. Every spec disables the paging-structure caches:
// with them enabled, upper walk levels are cached away and the 4- vs
// 5-level distinction disappears (the observation the five-level ablation
// documents), so the comparison would show nothing. With the walk depth
// exposed, the three backends differ exactly where the designs differ:
// walk length (la57), and what backs the second translation level
// (victima's LLC blocks vs the x86 L2 TLB).
func HwBackends() []string {
	return []string{
		mitosis.HardwareX8664 + ":psc=0/0/0/0",
		mitosis.HardwareX8664LA57 + ":psc=0/0/0/0",
		mitosis.HardwareVictima + ":psc=0/0/0/0",
	}
}

// HwConfigs lists the placement rungs each backend runs: the page-table
// stranded on the remote socket, then recovered by full replication — so
// the record answers whether replication still recovers remote-walk
// cycles when the translation hardware changes (it must: the walker's
// reads move to local DRAM regardless of what caches sit above it).
func HwConfigs() []string {
	return []string{"stranded", "replicated"}
}

// HwScenario builds one cell of the hardware comparison: single-threaded
// GUPS on socket 0 of a two-socket machine, page-table stranded on socket
// 1, translation hardware selected by the backend spec string.
func HwScenario(cfg Config, hardware, config string) mitosis.Scenario {
	cfg = cfg.fill()
	hs, err := mitosis.ParseHardware(hardware)
	if err != nil {
		panic(fmt.Sprintf("experiments: bad hwcmp hardware %q: %v", hardware, err))
	}
	machine := cfg.machine(false)
	machine.Sockets = hwSockets
	opts := []mitosis.ProcOpt{
		mitosis.OnSockets(0),
		mitosis.WithPTNode(1),
		mitosis.WithPhases(mitosis.Warmup(cfg.Warmup()), mitosis.Measure(cfg.Ops)),
	}
	if config == "replicated" {
		opts = append(opts, mitosis.WithReplication(mitosis.ReplicationSpec{All: true}))
	}
	return mitosis.NewScenario(fmt.Sprintf("bench/hwcmp/%s/%s", hs.Backend, config),
		mitosis.OnMachine(machine),
		mitosis.WithHardware(hs),
		mitosis.WithSeed(cfg.Seed),
		mitosis.WithProc(mitosis.NewProc("gups",
			mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(cfg.Scale)),
			opts...,
		)),
	)
}

// HwRun is one cell of the hardware comparison: the backend spec, the
// placement rung, and the full replayable RunResult.
type HwRun struct {
	Hardware string             `json:"hardware"`
	Config   string             `json:"config"`
	Result   *mitosis.RunResult `json:"result"`
}

// HwResult is the hwcmp target's replayable payload (BENCH_hw.json):
// the same workload across every backend x placement cell, each cell a
// complete RunResult the replay gate re-executes bit-identically.
type HwResult struct {
	Runs []HwRun `json:"runs"`
}

// RunHwCompare executes the hardware-comparison grid: every backend in
// HwBackends against every placement rung in HwConfigs, same workload and
// seed throughout.
func RunHwCompare(cfg Config) (*HwResult, error) {
	cfg = cfg.fill()
	res := &HwResult{}
	for _, hw := range HwBackends() {
		for _, config := range HwConfigs() {
			sc := HwScenario(cfg, hw, config)
			rr, err := mitosis.Run(sc)
			if err != nil {
				return nil, runErr("hwcmp "+sc.Name, err)
			}
			res.Runs = append(res.Runs, HwRun{Hardware: hw, Config: config, Result: rr})
		}
	}
	return res, nil
}

// String renders the comparison table: walk cost, translation reach and
// miss behaviour per backend, and how much of the stranded remote-walk
// cost replication recovers under each translation design.
func (v *HwResult) String() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Translation backends on GUPS (%d sockets, PT stranded on socket 1, MMU caches off)", hwSockets),
		Note: "replayable: mitosis-bench -replay BENCH_hw.json; " +
			"walks/kop = TLB-miss walks per 1000 ops; recovered = remote-walk cycles replication wins back",
		Columns: []string{"backend", "levels", "VA bits", "config", "walk cyc/op",
			"walks/kop", "walk%", "remote-walk%", "recovered"},
	}
	// remoteByHW remembers each backend's stranded remote-walk cycles so
	// the replicated row can report the recovered fraction.
	remoteByHW := map[string]float64{}
	for _, r := range v.Runs {
		m := r.Result.Measured("gups")
		if m == nil {
			continue
		}
		c := m.Counters
		remote := float64(c.RemoteWalkCycles)
		if r.Config == "stranded" {
			remoteByHW[r.Hardware] = remote
		}
		recovered := "-"
		if r.Config != "stranded" {
			if worst := remoteByHW[r.Hardware]; worst > 0 {
				recovered = metrics.Pct(1 - remote/worst)
			}
		}
		perOp := "-"
		if c.Ops > 0 {
			perOp = fmt.Sprintf("%.1f", float64(c.WalkCycles)/float64(c.Ops))
		}
		perKop := "-"
		if c.Ops > 0 {
			perKop = fmt.Sprintf("%.1f", 1000*float64(c.Walks)/float64(c.Ops))
		}
		g := r.Result.Hardware
		t.AddRow(g.Backend, fmt.Sprintf("%d", g.Levels), fmt.Sprintf("%d", g.VABits),
			r.Config, perOp, perKop,
			metrics.Pct(c.WalkCycleFraction()),
			metrics.Pct(c.RemoteWalkCycleFraction()),
			recovered)
	}
	return t.String()
}
