// Package fault is the deterministic fault-injection layer: a seeded,
// serializable plan of hardware failures — uncorrectable ECC poison on
// data or page-table frames, whole-NUMA-node offline events, and
// memory-pressure waves — that fire at execution-round barriers.
//
// Determinism is the whole design. Events are keyed to the cumulative
// round clock (the same run-global clock every engine mode advances
// identically), injection order within a barrier is the plan's own
// order, and recovery happens synchronously at the same barrier in
// canonical PID/node order. Nothing here reads wall-clock time or
// random state: the same plan against the same scenario produces
// bit-identical outcomes under Sequential, Parallel and Auto engines
// and any sweep worker count.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// Kind enumerates the injectable failure classes.
type Kind uint8

const (
	// PoisonData marks a mapped data frame of a process as carrying an
	// uncorrectable ECC error. Recovery discards the mapping and retires
	// the frame; the next touch demand-faults a fresh page.
	PoisonData Kind = iota
	// PoisonPT poisons a page-table root frame of a process on a chosen
	// node. With a surviving replica the table is rebuilt from the ring;
	// without one the process is SIGBUS-killed.
	PoisonPT
	// OfflineNode hot-removes a whole NUMA node: replicas on it are
	// dropped, mapped frames evacuate via the migration path, and the
	// allocator refuses new allocations there.
	OfflineNode
	// Pressure shrinks a node's usable frames, forcing the reclaim
	// ladder (drop cold replicas → abort in-flight replication →
	// OOM-kill by footprint) until the target headroom exists.
	Pressure
)

var kindNames = map[Kind]string{
	PoisonData:  "poison-data",
	PoisonPT:    "poison-pt",
	OfflineNode: "offline",
	Pressure:    "pressure",
}

// String returns the DSL name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString parses a DSL kind name.
func KindFromString(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// Event is one scheduled failure. Which fields matter depends on Kind:
//
//	PoisonData:  Round, Proc, Page (cumulative mapped-page index, VA order)
//	PoisonPT:    Round, Proc, Node (which root of the replica ring)
//	OfflineNode: Round, Node
//	Pressure:    Round, Node, Frames (usable-frame floor to reserve)
type Event struct {
	// Round is the cumulative round-barrier clock at which the event
	// fires. The clock advances across phases and processes identically
	// in every engine mode, so Round pins the event to one barrier.
	Round uint64 `json:"round"`
	// Kind selects the failure class.
	Kind Kind `json:"kind"`
	// Proc is the victim process index in spawn order (PoisonData,
	// PoisonPT).
	Proc int `json:"proc,omitempty"`
	// Node is the target NUMA node (PoisonPT, OfflineNode, Pressure).
	Node numa.NodeID `json:"node,omitempty"`
	// Page is the victim's cumulative mapped-page index in VA order
	// (PoisonData).
	Page int `json:"page,omitempty"`
	// Frames is the number of frames the pressure wave withholds from
	// the node (Pressure).
	Frames uint64 `json:"frames,omitempty"`
}

// String renders the event in the plan DSL.
func (e Event) String() string {
	parts := []string{e.Kind.String(), fmt.Sprintf("r%d", e.Round)}
	switch e.Kind {
	case PoisonData:
		parts = append(parts, fmt.Sprintf("p%d", e.Proc), fmt.Sprintf("g%d", e.Page))
	case PoisonPT:
		parts = append(parts, fmt.Sprintf("p%d", e.Proc), fmt.Sprintf("n%d", e.Node))
	case OfflineNode:
		parts = append(parts, fmt.Sprintf("n%d", e.Node))
	case Pressure:
		parts = append(parts, fmt.Sprintf("n%d", e.Node), fmt.Sprintf("f%d", e.Frames))
	}
	return strings.Join(parts, ":")
}

// Plan is an ordered set of events. Order matters only among events
// sharing a round: they inject in plan order at that barrier.
type Plan struct {
	Events []Event `json:"events"`
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// String renders the plan in the DSL: events joined by ';'.
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// Validate checks every event against the machine shape: procs is the
// scenario's process count, nodes the topology's node count.
func (p *Plan) Validate(procs, nodes int) error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		switch e.Kind {
		case PoisonData:
			if e.Proc < 0 || e.Proc >= procs {
				return fmt.Errorf("fault: event %d (%s): proc %d out of range [0,%d)", i, e, e.Proc, procs)
			}
			if e.Page < 0 {
				return fmt.Errorf("fault: event %d (%s): negative page index", i, e)
			}
		case PoisonPT:
			if e.Proc < 0 || e.Proc >= procs {
				return fmt.Errorf("fault: event %d (%s): proc %d out of range [0,%d)", i, e, e.Proc, procs)
			}
			if int(e.Node) < 0 || int(e.Node) >= nodes {
				return fmt.Errorf("fault: event %d (%s): node %d out of range [0,%d)", i, e, e.Node, nodes)
			}
		case OfflineNode:
			if int(e.Node) < 0 || int(e.Node) >= nodes {
				return fmt.Errorf("fault: event %d (%s): node %d out of range [0,%d)", i, e, e.Node, nodes)
			}
		case Pressure:
			if int(e.Node) < 0 || int(e.Node) >= nodes {
				return fmt.Errorf("fault: event %d (%s): node %d out of range [0,%d)", i, e, e.Node, nodes)
			}
			if e.Frames == 0 {
				return fmt.Errorf("fault: event %d (%s): pressure wants frames > 0", i, e)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// Injector walks a plan against the advancing round clock. It is a
// cursor: each event fires exactly once, at the first barrier whose
// cumulative round is >= the event's Round (catch-up included, so an
// event scheduled between barriers still lands deterministically).
type Injector struct {
	events []Event // sorted by Round, stable in plan order
	next   int
}

// NewInjector builds a cursor over the plan. The plan is not modified.
func NewInjector(p *Plan) *Injector {
	inj := &Injector{}
	if p != nil {
		inj.events = make([]Event, len(p.Events))
		copy(inj.events, p.Events)
		sort.SliceStable(inj.events, func(i, j int) bool {
			return inj.events[i].Round < inj.events[j].Round
		})
	}
	return inj
}

// Due returns, in firing order, every not-yet-fired event whose Round
// is <= round, advancing the cursor past them.
func (inj *Injector) Due(round uint64) []Event {
	start := inj.next
	for inj.next < len(inj.events) && inj.events[inj.next].Round <= round {
		inj.next++
	}
	return inj.events[start:inj.next]
}

// Pending reports how many events have not fired yet.
func (inj *Injector) Pending() int { return len(inj.events) - inj.next }

// kindFields lists the field prefixes each kind takes besides r<round>:
// the fields Event.String renders for it.
var kindFields = map[Kind]string{
	PoisonData:  "pg",
	PoisonPT:    "pn",
	OfflineNode: "n",
	Pressure:    "nf",
}

// ParsePlan parses the plan DSL: ';'-separated events, each a
// ':'-separated list of a kind name followed by fields — r<round>,
// p<proc>, n<node>, g<page>, f<frames> — in any order. An event takes
// only the fields its kind uses (see Event), and no value may exceed
// math.MaxInt, so every plan ParsePlan accepts renders back to an equal
// plan through String. Examples:
//
//	poison-pt:r8:p0:n1            poison proc 0's PT root on node 1 at round 8
//	poison-data:r8:p0:g5          poison proc 0's 5th mapped page
//	offline:r12:n1                hot-remove node 1 at round 12
//	pressure:r4:n0:f4096          withhold 4096 frames of node 0
func ParsePlan(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var plan Plan
	for i, raw := range strings.Split(s, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		fields := strings.Split(raw, ":")
		kind, err := KindFromString(fields[0])
		if err != nil {
			return nil, fmt.Errorf("fault: event %d %q: %w", i, raw, err)
		}
		e := Event{Kind: kind}
		haveRound := false
		for _, f := range fields[1:] {
			if len(f) < 2 {
				return nil, fmt.Errorf("fault: event %d %q: bad field %q", i, raw, f)
			}
			if strings.IndexByte("rpngf", f[0]) < 0 {
				return nil, fmt.Errorf("fault: event %d %q: unknown field prefix %q", i, raw, f)
			}
			if f[0] != 'r' && strings.IndexByte(kindFields[kind], f[0]) < 0 {
				return nil, fmt.Errorf("fault: event %d %q: %s takes no %c<N> field", i, raw, kind, f[0])
			}
			v, err := strconv.ParseUint(f[1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: event %d %q: field %q: %w", i, raw, f, err)
			}
			if v > math.MaxInt {
				return nil, fmt.Errorf("fault: event %d %q: field %q: value above %d", i, raw, f, math.MaxInt)
			}
			switch f[0] {
			case 'r':
				e.Round, haveRound = v, true
			case 'p':
				e.Proc = int(v)
			case 'n':
				e.Node = numa.NodeID(v)
			case 'g':
				e.Page = int(v)
			case 'f':
				e.Frames = v
			}
		}
		if !haveRound {
			return nil, fmt.Errorf("fault: event %d %q: missing round (r<N>)", i, raw)
		}
		plan.Events = append(plan.Events, e)
	}
	if len(plan.Events) == 0 {
		return nil, nil
	}
	return &plan, nil
}
