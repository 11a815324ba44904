// The paper's two evaluation scenarios, built *through* the public
// declarative scenario API: msRun and wmRun translate an experiment
// configuration into a mitosis.Scenario and execute it with mitosis.Run,
// so every figure row is reproducible from the serialized spec the same
// way bench records are.
package experiments

import (
	"fmt"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// MSPolicy is a multi-socket data-placement configuration (Table 3 of the
// paper): first-touch, first-touch + AutoNUMA, or interleave — each with or
// without Mitosis page-table replication.
type MSPolicy struct {
	// Name is the paper's bar label without the THP prefix ("F", "F+M",
	// "F-A", "F-A+M", "I", "I+M").
	Name string
	// Interleave selects interleaved data placement; otherwise first-touch.
	Interleave bool
	// AutoNUMA enables data-page migration between warmup and measurement.
	AutoNUMA bool
	// Mitosis replicates page-tables on all sockets.
	Mitosis bool
}

// MSPolicies returns the six configurations of Figure 9, in order.
func MSPolicies() []MSPolicy {
	return []MSPolicy{
		{Name: "F"},
		{Name: "F+M", Mitosis: true},
		{Name: "F-A", AutoNUMA: true},
		{Name: "F-A+M", AutoNUMA: true, Mitosis: true},
		{Name: "I", Interleave: true},
		{Name: "I+M", Interleave: true, Mitosis: true},
	}
}

// MSScenario translates one multi-socket configuration into the public
// declarative spec: the named workload runs with one worker per socket
// across the whole machine (§8.1), warms up, optionally AutoNUMA-migrates,
// and measures.
func MSScenario(cfg Config, name string, pol MSPolicy, thp bool) mitosis.Scenario {
	cfg = cfg.fill()
	measure := mitosis.Measure(cfg.Ops)
	measure.AutoNUMA = pol.AutoNUMA
	opts := []mitosis.ProcOpt{
		mitosis.WithPhases(mitosis.Warmup(cfg.Warmup()), measure),
	}
	if pol.Interleave {
		opts = append(opts, mitosis.WithDataPolicy(mitosis.PlaceInterleave))
	}
	if pol.Mitosis {
		opts = append(opts, mitosis.WithReplication(mitosis.ReplicationSpec{All: true}))
	}
	proc := mitosis.NewProc(name,
		mitosis.NamedWorkload(name, mitosis.InSuite("ms"), mitosis.Scaled(cfg.Scale)),
		opts...)
	return mitosis.NewScenario(fmt.Sprintf("ms/%s/%s", name, pol.Name),
		mitosis.OnMachine(cfg.machine(thp)),
		mitosis.WithSeed(cfg.Seed),
		mitosis.WithProc(proc))
}

// msRun executes one multi-socket configuration through the scenario API.
// It returns the measured phase's counters (initialization excluded) and
// the kernel for post-inspection (page-table dumps).
func msRun(cfg Config, name string, pol MSPolicy, thp bool) (mitosis.Counters, *kernel.Kernel, error) {
	cfg = cfg.fill()
	sc := MSScenario(cfg, name, pol, thp)
	sys := mitosis.NewSystem(sc.Machine)
	rr, err := sys.Run(sc)
	if err != nil {
		return mitosis.Counters{}, nil, runErr("ms "+name+"/"+pol.Name, err)
	}
	return rr.Measured(name).Counters, sys.Kernel(), nil
}

// WMConfig is one workload-migration placement configuration (Table 2 of
// the paper). The process always runs on socket A (0); "remote" means
// socket B (1).
type WMConfig struct {
	// Name is the paper's label ("LP-LD", "RPI-LD", ...; the THP variants
	// prefix a T).
	Name string
	// RemotePT places page-tables on socket B.
	RemotePT bool
	// RemoteData places data on socket B.
	RemoteData bool
	// Interfere runs a bandwidth hog on socket B.
	Interfere bool
	// MitosisMigrate recovers from remote page-tables by migrating them
	// to socket A with Mitosis (the "+M" bars).
	MitosisMigrate bool
}

// WMConfigs returns the seven configurations of Figure 6, in order.
func WMConfigs() []WMConfig {
	return []WMConfig{
		{Name: "LP-LD"},
		{Name: "LP-RD", RemoteData: true},
		{Name: "LP-RDI", RemoteData: true, Interfere: true},
		{Name: "RP-LD", RemotePT: true},
		{Name: "RPI-LD", RemotePT: true, Interfere: true},
		{Name: "RP-RD", RemotePT: true, RemoteData: true},
		{Name: "RPI-RDI", RemotePT: true, RemoteData: true, Interfere: true},
	}
}

// wmSockets: the process runs on socket A; B hosts the remote placements.
const (
	wmSocketA = numa.SocketID(0)
	wmSocketB = numa.SocketID(1)
)

// WMScenario translates one workload-migration configuration into the
// public spec: a single-threaded workload on socket A with
// page-tables/data placed per c (§3.2, §8.2); fragmentation > 0
// pre-fragments all nodes (Figure 11).
func WMScenario(cfg Config, name string, c WMConfig, thp bool, fragmentation float64) mitosis.Scenario {
	cfg = cfg.fill()
	nodeA, nodeB := int(wmSocketA), int(wmSocketB)
	ptNode, dataNode := nodeA, nodeA
	if c.RemotePT {
		ptNode = nodeB
	}
	if c.RemoteData {
		dataNode = nodeB
	}
	warmup := mitosis.Warmup(cfg.Warmup())
	if c.MitosisMigrate {
		// Mitosis migrates the stranded tables back to A before warmup
		// and pins future page-table allocations there.
		warmup.MovePT = &nodeA
	}
	opts := []mitosis.ProcOpt{
		mitosis.OnSockets(nodeA),
		mitosis.WithDataBind(dataNode),
		mitosis.WithPTNode(ptNode),
		mitosis.WithPhases(warmup, mitosis.Measure(cfg.Ops)),
	}
	proc := mitosis.NewProc(name,
		mitosis.NamedWorkload(name, mitosis.InSuite("wm"), mitosis.Scaled(cfg.Scale)),
		opts...)
	scOpts := []mitosis.ScenarioOpt{
		mitosis.OnMachine(cfg.machine(thp)),
		mitosis.WithSeed(cfg.Seed),
		mitosis.WithFragmentation(fragmentation),
		mitosis.WithProc(proc),
	}
	if c.Interfere {
		scOpts = append(scOpts, mitosis.WithInterference(nodeB))
	}
	return mitosis.NewScenario(fmt.Sprintf("wm/%s/%s", name, c.Name), scOpts...)
}

// wmRun executes one workload-migration configuration through the
// scenario API, returning what msRun returns.
func wmRun(cfg Config, name string, c WMConfig, thp bool, fragmentation float64) (mitosis.Counters, *kernel.Kernel, error) {
	cfg = cfg.fill()
	sc := WMScenario(cfg, name, c, thp, fragmentation)
	sys := mitosis.NewSystem(sc.Machine)
	rr, err := sys.Run(sc)
	if err != nil {
		return mitosis.Counters{}, nil, runErr("wm "+name+"/"+c.Name, err)
	}
	return rr.Measured(name).Counters, sys.Kernel(), nil
}
