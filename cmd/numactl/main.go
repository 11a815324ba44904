// numactl is a miniature of the NUMA policy tool with the paper's Mitosis
// extension (Listing 2): it launches a named workload on the simulated
// machine under the requested data placement, CPU binding and — the
// addition — page-table replication mask, then reports the hardware
// counters.
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

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

func main() {
	interleave := flag.Bool("interleave", false, "interleave data pages across all nodes")
	membind := flag.Int("membind", -1, "bind data pages to one node")
	cpunode := flag.Int("cpunodebind", 0, "run on this socket")
	all := flag.Bool("all", false, "run one worker on every socket")
	repl := flag.String("pgtablerepl", "", "replicate page-tables: 'all' or a node list like 0,2")
	replShort := flag.String("r", "", "alias for --pgtablerepl")
	thp := flag.Bool("thp", false, "enable transparent huge pages")
	ops := flag.Int("ops", 100000, "operations per worker")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: numactl [flags] <workload>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	scenario := "wm"
	if *all {
		scenario = "ms"
	}
	w := workloads.ByName(flag.Arg(0), scenario)
	if w == nil {
		log.Fatalf("unknown workload %q", flag.Arg(0))
	}

	k := kernel.New(kernel.Config{})
	k.SetTHP(*thp)
	k.Sysctl().Mode = core.ModePerProcess
	k.Sysctl().PageCacheTarget = 64
	k.ApplySysctl()

	opts := kernel.ProcessOpts{
		Name:         w.Name(),
		Home:         numa.SocketID(*cpunode),
		DataLocality: w.DataLocality(),
	}
	switch {
	case *interleave:
		opts.DataPolicy = kernel.Interleave
	case *membind >= 0:
		opts.DataPolicy = kernel.Bind
		opts.BindNode = numa.NodeID(*membind)
	}
	p, err := k.CreateProcess(opts)
	if err != nil {
		log.Fatal(err)
	}

	topo := k.Topology()
	var cores []numa.CoreID
	if *all {
		for s := 0; s < topo.Sockets(); s++ {
			cores = append(cores, topo.FirstCoreOf(numa.SocketID(s)))
		}
	} else {
		cores = []numa.CoreID{topo.FirstCoreOf(numa.SocketID(*cpunode))}
	}
	if err := k.RunOn(p, cores); err != nil {
		log.Fatal(err)
	}

	env := workloads.NewEnv(k, p, *thp, 42)
	fmt.Printf("initializing %s (%d MB)...\n", w.Name(), w.Footprint()>>20)
	if err := w.Setup(env); err != nil {
		log.Fatal(err)
	}

	mask := *repl
	if mask == "" {
		mask = *replShort
	}
	if mask != "" {
		nodes, err := parseMask(mask, topo.Nodes())
		if err != nil {
			log.Fatal(err)
		}
		if err := p.SetReplicationMask(nodes); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("page-table replicas on nodes %v\n", p.ReplicaNodes())
	}

	res, err := workloads.Run(env, w, *ops)
	if err != nil {
		log.Fatal(err)
	}
	t := &res.Total
	fmt.Printf("\n%s: %d ops on %d worker(s)\n", w.Name(), t.Ops, len(cores))
	fmt.Printf("  runtime (makespan):   %d cycles\n", res.Makespan)
	fmt.Printf("  page walks:           %d (%.1f%% of cycles)\n", t.Walks, t.WalkCycleFraction()*100)
	fmt.Printf("  walker DRAM accesses: %d (%.0f%% remote)\n", t.WalkMemAccesses,
		pct(t.WalkRemoteAccesses, t.WalkMemAccesses))
	fmt.Printf("  walker LLC hits:      %d\n", t.WalkLLCHits)
}

func parseMask(s string, nodes int) ([]numa.NodeID, error) {
	if s == "all" {
		out := make([]numa.NodeID, nodes)
		for i := range out {
			out[i] = numa.NodeID(i)
		}
		return out, nil
	}
	var out []numa.NodeID
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 || n >= nodes {
			return nil, fmt.Errorf("numactl: bad node %q in mask", part)
		}
		out = append(out, numa.NodeID(n))
	}
	return out, nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
