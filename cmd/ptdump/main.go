// ptdump is the simulator's version of the paper's page-table dumping
// kernel module (§3.1): it runs a workload on the simulated machine,
// periodically snapshots its page-table, and prints the per-level,
// per-socket distribution of page-table pages and their pointers in the
// Figure 3 layout, plus the Figure 4 remote-leaf-PTE summary.
//
// With -tiers the machine gains CPU-less slow-tier nodes (CXL/NVM) and
// every snapshot also prints the per-node tier residency of the data
// pages together with their folded AutoNUMA access samples — the hotness
// stream the tiering engine's Tracker classifies on. -ptnode strands the
// page-table on a chosen node so the tier placement of the table itself
// is visible in the dump.
//
// -hardware selects the translation hardware the machine boots: any
// SystemConfig.Hardware string, a backend name (x8664, x8664la57 or
// victima) optionally with sizing overrides; -geometry prints the booted
// backend's geometry — name, walk levels, VA reach, TLB arrays and
// paging-structure cache rows — and exits without running a workload.
//
// -faults takes a fault plan in the scenario DSL
// (kind:r<N>[:p<N>][:n<N>][:g<N>][:f<N>], ';'-separated; kinds
// poison-data, poison-pt, offline, pressure). Due events fire at snapshot
// boundaries — the round clock advances interval/32 rounds per snapshot,
// matching the scenario engine's round length — and every snapshot then
// appends a fault report: retired (poisoned) frames per node, offline
// nodes, the process's replica health, and the recovery action log.
//
// The machine and the process are described as a one-process scenario and
// validated by the public facade, so a bad -tiers, -hardware, -ptnode or
// -faults value fails with the facade's error. ptdump then boots the
// machine with mitosis.NewSystem and spawns the process from that spec;
// the snapshot loop drives the kernel underneath.
//
// Usage:
//
//	ptdump [-workload Memcached] [-scenario ms|wm] [-thp] [-interval N]
//	       [-snapshots N] [-replicate] [-tiers cxl@0[,nvm@1...]] [-ptnode N]
//	       [-hardware BACKEND] [-geometry] [-faults PLAN]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strings"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/fault"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

func main() {
	name := flag.String("workload", "Memcached", "workload name (paper Table 1)")
	scenario := flag.String("scenario", "ms", "suite: ms (multi-socket) or wm (workload migration)")
	thp := flag.Bool("thp", false, "enable transparent huge pages")
	interval := flag.Int("interval", 20000, "operations between snapshots (the paper used 30s)")
	snapshots := flag.Int("snapshots", 3, "number of snapshots")
	replicate := flag.Bool("replicate", false, "enable Mitosis replication on all sockets")
	tiers := flag.String("tiers", "", "slow-tier nodes as kind@socket, e.g. cxl@0,nvm@1")
	ptnode := flag.Int("ptnode", -1, "pin page-table allocation to this node (default: home socket)")
	hardware := flag.String("hardware", "", "translation hardware: a SystemConfig.Hardware string, e.g. x8664, x8664la57 or victima (default x8664)")
	geometry := flag.Bool("geometry", false, "print the booted translation-hardware geometry and exit")
	faults := flag.String("faults", "", "fault plan (e.g. poison-pt:r100:p0:n1;offline:r200:n2), fired at snapshot boundaries")
	flag.Parse()

	w := workloads.ByName(*name, *scenario)
	if w == nil {
		fmt.Fprintf(os.Stderr, "ptdump: unknown workload %q; known: %s\n", *name, strings.Join(suiteNames(*scenario), " "))
		os.Exit(2)
	}

	opts := []mitosis.ProcOpt{mitosis.WithPhases(mitosis.Measure(*interval))}
	if *scenario == "wm" {
		opts = append(opts, mitosis.OnSockets(0))
	}
	if *ptnode >= 0 {
		opts = append(opts, mitosis.WithPTNode(*ptnode))
	}
	sc := mitosis.NewScenario("ptdump",
		mitosis.OnMachine(mitosis.SystemConfig{THP: *thp, Tiers: *tiers, Hardware: *hardware}),
		mitosis.WithFaults(*faults),
		mitosis.WithProc(mitosis.NewProc(w.Name(), mitosis.NamedWorkload(w.Name()), opts...)))
	if err := sc.Validate(); err != nil {
		log.Fatalf("ptdump: %v", err)
	}
	sys := mitosis.NewSystem(sc.Machine)
	k := sys.Kernel()
	if *geometry {
		printGeometry(k.HardwareGeometry())
		return
	}
	pr, err := sys.Spawn(sc.Processes[0])
	if err != nil {
		log.Fatal(err)
	}
	p, topo := pr.Process(), k.Topology()
	env := workloads.NewEnv(k, p, *thp, 42)
	fmt.Printf("initializing %s (%d MB)...\n", w.Name(), w.Footprint()>>20)
	if err := w.Setup(env); err != nil {
		log.Fatal(err)
	}
	if *replicate {
		if err := pr.ReplicatePageTables(); err != nil {
			log.Fatal(err)
		}
	}
	var feng *kernel.FaultEngine
	if *faults != "" {
		plan, err := fault.ParsePlan(*faults)
		if err != nil {
			log.Fatalf("ptdump: -faults: %v", err)
		}
		feng = k.AttachFaultEngine(plan, []*kernel.Process{p}, []string{w.Name()})
	}
	// Each snapshot interval is one engine run, so a plan's r<N> rounds
	// line up with scenario plans.
	roundsPerSnap := workloads.Rounds(*interval)

	for snap := 0; snap < *snapshots; snap++ {
		if snap > 0 {
			if _, err := workloads.Run(env, w, *interval); err != nil {
				log.Fatal(err)
			}
		}
		if feng != nil {
			if err := feng.Tick(uint64(snap*roundsPerSnap), p); err != nil {
				// Recovery killed the process (SIGBUS or OOM): render the
				// post-mortem fault report and stop — there is no table
				// left to snapshot.
				fmt.Printf("\n--- snapshot %d (after %d ops/thread) ---\n", snap, snap**interval)
				fmt.Printf("%v\n", err)
				k.DestroyProcess(p)
				printFaultReport(k, feng)
				return
			}
		}
		d := pt.Snapshot(p.Table())
		fmt.Printf("\n--- snapshot %d (after %d ops/thread) ---\n", snap, snap**interval)
		fmt.Print(d.Format())
		var remote []string
		for s := numa.SocketID(0); int(s) < topo.Sockets(); s++ {
			remote = append(remote, fmt.Sprintf("socket%d %.0f%%", s, d.RemoteLeafFraction(s)*100))
		}
		fmt.Printf("remote leaf PTEs observed: %s\n", strings.Join(remote, ", "))
		if topo.Tiered() {
			printTierResidency(k, p)
		}
		if feng != nil {
			printFaultReport(k, feng)
		}
	}
}

// suiteNames returns the names of the workloads a -scenario value
// selects, each once, in suite order.
func suiteNames(scenario string) []string {
	var names []string
	for _, w := range workloads.Suite(scenario) {
		if !slices.Contains(names, w.Name()) {
			names = append(names, w.Name())
		}
	}
	return names
}

// printFaultReport renders the fault engine's view of the machine:
// permanently retired (poisoned) frames per node, offline nodes, every
// process's replica redundancy state, and the recovery action log.
func printFaultReport(k *kernel.Kernel, feng *kernel.FaultEngine) {
	topo, pm := k.Topology(), k.Mem()
	st := feng.Stats()
	fmt.Printf("fault report: %d injected (%d pending), %d MCEs, %d PT rebuilds, %d kills\n",
		st.Injected, feng.Pending(), st.MCEs, st.PTRebuilds, st.SigbusKills+st.OOMKills)
	var nodes []string
	for n := 0; n < topo.Nodes(); n++ {
		id := numa.NodeID(n)
		state := ""
		if pm.NodeOffline(id) {
			state = " OFFLINE"
		}
		if retired := pm.Retired(id); retired > 0 || state != "" {
			nodes = append(nodes, fmt.Sprintf("node%d %d retired%s", n, pm.Retired(id), state))
		}
	}
	if len(nodes) > 0 {
		fmt.Printf("  frames: %s\n", strings.Join(nodes, ", "))
	}
	for _, h := range feng.Health() {
		var nn []string
		for _, n := range h.Nodes {
			nn = append(nn, fmt.Sprint(int(n)))
		}
		loc := ""
		if len(nn) > 0 {
			loc = " (table on nodes " + strings.Join(nn, ",") + ")"
		}
		fmt.Printf("  replica health: pid %d %s: %s%s\n", h.PID, h.Name, h.State, loc)
	}
	for _, a := range feng.ActionLog() {
		fmt.Printf("  action %s\n", a)
	}
}

// printGeometry renders the booted backend's translation geometry: walk
// depth and reach, the per-core TLB arrays, and the paging-structure
// cache rows keyed by the table level they cache.
func printGeometry(g translate.Geometry) {
	fmt.Printf("backend:  %s\n", g.Backend)
	fmt.Printf("levels:   %d (VA reach %d bits)\n", g.Levels, g.VABits)
	fmt.Printf("L1 TLB:   %d entries 4K (%d-way), %d entries 2M/1G (%d-way)\n",
		g.TLB.L1Entries4K, g.TLB.L1Ways4K, g.TLB.L1Entries2M, g.TLB.L1Ways2M)
	if g.TLB.L2Entries > 0 {
		fmt.Printf("L2 TLB:   %d entries (%d-way)\n", g.TLB.L2Entries, g.TLB.L2Ways)
	} else {
		fmt.Printf("L2 TLB:   none (translation blocks live in the LLC)\n")
	}
	if len(g.PSC) == 0 {
		fmt.Printf("PSC:      off\n")
		return
	}
	var rows []string
	for i, n := range g.PSC {
		rows = append(rows, fmt.Sprintf("L%d=%d", i+2, n))
	}
	fmt.Printf("PSC:      %s entries\n", strings.Join(rows, " "))
}

// printTierResidency aggregates the process's mapped data pages per node
// and prints each node's tier label together with the folded AutoNUMA
// access samples — the exact hotness stream the tiering engine's Tracker
// classifies on. ptdump attaches no engine, so nothing clears the folded
// counters between snapshots and they accumulate over the whole run.
func printTierResidency(k *kernel.Kernel, p *kernel.Process) {
	topo, pm := k.Topology(), k.Mem()
	type nodeAgg struct{ pages, local, remote uint64 }
	agg := make([]nodeAgg, topo.Nodes())
	type hotPage struct {
		va      pt.VirtAddr
		node    numa.NodeID
		samples uint64
	}
	var hottest []hotPage
	p.ForEachMappedPage(func(va pt.VirtAddr, f mem.FrameID, size pt.PageSize) {
		meta := pm.Meta(f)
		a := &agg[pm.NodeOf(f)]
		a.pages += size.Bytes() >> pt.PageShift4K
		a.local += uint64(meta.LocalAccesses)
		a.remote += uint64(meta.RemoteAccesses)
		if s := uint64(meta.LocalAccesses) + uint64(meta.RemoteAccesses); s > 0 {
			hottest = append(hottest, hotPage{va, pm.NodeOf(f), s})
		}
	})
	fmt.Println("per-node data residency (folded access samples, cumulative):")
	for n := range agg {
		fmt.Printf("  node%d %-4s %8d pages %8d sampled accesses (%d local, %d remote)\n",
			n, topo.TierOf(numa.NodeID(n)), agg[n].pages,
			agg[n].local+agg[n].remote, agg[n].local, agg[n].remote)
	}
	primary := p.Space().PrimaryNode()
	fmt.Printf("page-table primary on node%d (%s)\n", primary, topo.TierOf(primary))
	// The walk is VA-ordered, so a stable sort keeps ties deterministic.
	sort.SliceStable(hottest, func(i, j int) bool { return hottest[i].samples > hottest[j].samples })
	if len(hottest) > 5 {
		hottest = hottest[:5]
	}
	for _, h := range hottest {
		fmt.Printf("  hottest va=%#x node%d (%s) %d samples\n",
			h.va, h.node, topo.TierOf(h.node), h.samples)
	}
}
