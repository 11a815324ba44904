// numactl is a miniature of the NUMA policy tool with the paper's Mitosis
// extension (Listing 2): it launches a named workload on the simulated
// machine under the requested data placement, CPU binding and — the
// addition — page-table replication mask, then reports the hardware
// counters. The launch is a one-process scenario run through the public
// facade: the workload's set-up, the replication mask, then one measured
// phase of -ops operations per worker.
//
// Usage:
//
//	numactl [--interleave | --membind N] [--cpunodebind N | --all]
//	        [--pgtablerepl all|0,2,3 | -r ...] [-thp] [-ops N] <workload>
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

func main() {
	interleave := flag.Bool("interleave", false, "interleave data pages across all nodes")
	membind := flag.Int("membind", -1, "bind data pages to one node")
	cpunode := flag.Int("cpunodebind", 0, "run on this socket (ignored with -all)")
	all := flag.Bool("all", false, "run one worker on every socket")
	var mask string
	flag.StringVar(&mask, "pgtablerepl", "", "replicate page-tables: 'all' or a node list like 0,2")
	flag.StringVar(&mask, "r", "", "alias for --pgtablerepl")
	thp := flag.Bool("thp", false, "enable transparent huge pages")
	ops := flag.Int("ops", 100000, "operations per worker")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: numactl [flags] <workload>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	suite := "wm"
	if *all {
		suite = "ms"
	}
	w := workloads.ByName(flag.Arg(0), suite)
	if w == nil {
		log.Fatalf("unknown workload %q", flag.Arg(0))
	}
	if w.Name() == "STREAM" {
		// STREAM has no suite variants; the facade rejects a suite for it.
		suite = ""
	}

	opts := []mitosis.ProcOpt{mitosis.WithPhases(mitosis.Measure(*ops))}
	if !*all {
		opts = append(opts, mitosis.OnSockets(*cpunode))
	}
	switch {
	case *interleave:
		opts = append(opts, mitosis.WithDataPolicy(mitosis.PlaceInterleave))
	case *membind >= 0:
		opts = append(opts, mitosis.WithDataBind(*membind))
	}
	if mask != "" {
		r, err := parseMask(mask)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, mitosis.WithReplication(r))
	}
	sc := mitosis.NewScenario("numactl",
		mitosis.OnMachine(mitosis.SystemConfig{THP: *thp}),
		mitosis.WithProc(mitosis.NewProc(w.Name(), mitosis.NamedWorkload(w.Name(), mitosis.InSuite(suite)), opts...)))
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("initializing %s (%d MB)...\n", w.Name(), w.Footprint()>>20)
	rr, err := mitosis.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	ph := rr.Measured("")
	if mask != "" {
		fmt.Printf("page-table replicas on nodes %v\n", ph.ReplicaNodes)
	}
	workers := 1
	if *all {
		workers = rr.Scenario.Machine.Sockets
	}
	c := &ph.Counters
	fmt.Printf("\n%s: %d ops on %d worker(s)\n", w.Name(), c.Ops, workers)
	fmt.Printf("  runtime (makespan):   %d cycles\n", c.Cycles)
	fmt.Printf("  page walks:           %d (%.1f%% of cycles)\n", c.Walks, c.WalkCycleFraction()*100)
	fmt.Printf("  walker DRAM accesses: %d (%.0f%% remote)\n", c.WalkMemAccesses,
		pct(c.WalkRemoteAccesses, c.WalkMemAccesses))
	fmt.Printf("  walker LLC hits:      %d\n", c.WalkLLCHits)
}

// parseMask turns a --pgtablerepl value into a replication spec: "all"
// or a comma-separated node list. Scenario validation range-checks the
// nodes.
func parseMask(s string) (mitosis.ReplicationSpec, error) {
	if s == "all" {
		return mitosis.ReplicationSpec{All: true}, nil
	}
	var nodes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return mitosis.ReplicationSpec{}, fmt.Errorf("numactl: bad node %q in mask", part)
		}
		nodes = append(nodes, n)
	}
	return mitosis.ReplicationSpec{Nodes: nodes}, nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
