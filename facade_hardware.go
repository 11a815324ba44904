package mitosis

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

// Translation-hardware backend names for HardwareSpec.Backend and the
// SystemConfig.Hardware / Sweep.Hardware string forms.
const (
	// HardwareX8664 is the default: x86-64 4-level radix tables with a
	// two-level TLB and paging-structure caches.
	HardwareX8664 = translate.BackendX8664
	// HardwareX8664LA57 is 5-level paging (LA57): one extra walk level,
	// an extra PSC row, 57-bit virtual-address reach.
	HardwareX8664LA57 = translate.BackendX8664LA57
	// HardwareVictima is a Victima-style design (arXiv 2310.04158): no
	// L2 TLB; software-managed TLB-block entries live in the socket's
	// LLC alongside page-table lines and compete for its capacity.
	HardwareVictima = translate.BackendVictima
)

// HardwareBackends lists the translation backends a machine can run.
func HardwareBackends() []string {
	return []string{HardwareX8664, HardwareX8664LA57, HardwareVictima}
}

// HardwareSpec selects and sizes a machine's translation hardware. The
// zero value is the default x86-64 backend with default geometry. Zero
// sizing groups keep the selected backend's defaults, so a spec can name
// a backend and override only one array. Serialized form (the
// SystemConfig.Hardware string) is produced by String and read back by
// ParseHardware.
type HardwareSpec struct {
	// Backend is one of HardwareBackends() ("" = HardwareX8664).
	Backend string
	// L1TLB4K/L1TLB4KWays size the first-level 4KB-page TLB array.
	L1TLB4K, L1TLB4KWays int
	// L1TLB2M/L1TLB2MWays size the first-level 2MB-page TLB array (1GB
	// pages share it).
	L1TLB2M, L1TLB2MWays int
	// L2TLB/L2TLBWays size the unified second level. The victima backend
	// has no L2 and rejects non-zero values.
	L2TLB, L2TLBWays int
	// PSCL2..PSCL5 size the paging-structure cache rows (entries for
	// cached level-2..level-5 table entries). All-zero keeps the default
	// rows; set NoPSC to disable the caches instead.
	PSCL2, PSCL3, PSCL4, PSCL5 int
	// NoPSC disables the paging-structure caches entirely ("psc=0/0/0/0"
	// in string form), exposing the full walk depth — the ablation knob
	// that makes 4- vs 5-level costs visible.
	NoPSC bool
}

// String renders the spec in its canonical SystemConfig.Hardware form:
// "" for the zero spec, a bare backend name for default geometry, or
// "name:l14k=E/W,l12m=E/W,l2=E/W,psc=L2/L3/L4/L5" with only the
// overridden groups present.
func (h HardwareSpec) String() string {
	if h == (HardwareSpec{}) {
		return ""
	}
	name := h.Backend
	if name == "" {
		name = HardwareX8664
	}
	var parts []string
	if h.L1TLB4K != 0 || h.L1TLB4KWays != 0 {
		parts = append(parts, fmt.Sprintf("l14k=%d/%d", h.L1TLB4K, h.L1TLB4KWays))
	}
	if h.L1TLB2M != 0 || h.L1TLB2MWays != 0 {
		parts = append(parts, fmt.Sprintf("l12m=%d/%d", h.L1TLB2M, h.L1TLB2MWays))
	}
	if h.L2TLB != 0 || h.L2TLBWays != 0 {
		parts = append(parts, fmt.Sprintf("l2=%d/%d", h.L2TLB, h.L2TLBWays))
	}
	if h.NoPSC {
		parts = append(parts, "psc=0/0/0/0")
	} else if h.PSCL2 != 0 || h.PSCL3 != 0 || h.PSCL4 != 0 || h.PSCL5 != 0 {
		parts = append(parts, fmt.Sprintf("psc=%d/%d/%d/%d", h.PSCL2, h.PSCL3, h.PSCL4, h.PSCL5))
	}
	if len(parts) == 0 {
		return name
	}
	return name + ":" + strings.Join(parts, ",")
}

// ParseHardware reads a SystemConfig.Hardware string back into a spec.
// It checks form only; backend names and geometry invariants are checked
// by validation (Scenario.Validate / Sweep.Validate), so error messages
// land with the rest of the spec diagnostics.
func ParseHardware(s string) (HardwareSpec, error) {
	var h HardwareSpec
	if s == "" {
		return h, nil
	}
	name, rest, hasOpts := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return h, fmt.Errorf("hardware %q: empty backend name", s)
	}
	h.Backend = name
	if !hasOpts {
		return h, nil
	}
	ints := func(key, val string, n int) ([]int, error) {
		fields := strings.Split(val, "/")
		if len(fields) != n {
			return nil, fmt.Errorf("hardware %q: %s=%s: want %d /-separated integers", s, key, val, n)
		}
		out := make([]int, n)
		for i, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("hardware %q: %s=%s: bad integer %q", s, key, val, f)
			}
			out[i] = v
		}
		return out, nil
	}
	for _, part := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return h, fmt.Errorf("hardware %q: option %q: want key=value", s, part)
		}
		switch key {
		case "l14k":
			v, err := ints(key, val, 2)
			if err != nil {
				return h, err
			}
			h.L1TLB4K, h.L1TLB4KWays = v[0], v[1]
		case "l12m":
			v, err := ints(key, val, 2)
			if err != nil {
				return h, err
			}
			h.L1TLB2M, h.L1TLB2MWays = v[0], v[1]
		case "l2":
			v, err := ints(key, val, 2)
			if err != nil {
				return h, err
			}
			h.L2TLB, h.L2TLBWays = v[0], v[1]
		case "psc":
			v, err := ints(key, val, 4)
			if err != nil {
				return h, err
			}
			h.PSCL2, h.PSCL3, h.PSCL4, h.PSCL5 = v[0], v[1], v[2], v[3]
			h.NoPSC = v[0] == 0 && v[1] == 0 && v[2] == 0 && v[3] == 0
		default:
			return h, fmt.Errorf("hardware %q: unknown option %q (have l14k, l12m, l2, psc)", s, key)
		}
	}
	return h, nil
}

// WithHardware sets the machine's translation hardware.
func WithHardware(h HardwareSpec) ScenarioOpt {
	return func(s *Scenario) { s.Machine.Hardware = h.String() }
}

// translateSpec lowers the facade spec to the internal backend spec.
// Sizing groups left zero inherit the backend's defaults, array by array.
func (h HardwareSpec) translateSpec() translate.Spec {
	ts := translate.Spec{Backend: h.Backend}
	cfg := tlb.DefaultConfig()
	if h.Backend == HardwareVictima {
		cfg.L2Entries, cfg.L2Ways = 0, 0
	}
	if h.L1TLB4K != 0 || h.L1TLB4KWays != 0 {
		cfg.L1Entries4K, cfg.L1Ways4K = h.L1TLB4K, h.L1TLB4KWays
	}
	if h.L1TLB2M != 0 || h.L1TLB2MWays != 0 {
		cfg.L1Entries2M, cfg.L1Ways2M = h.L1TLB2M, h.L1TLB2MWays
	}
	if h.L2TLB != 0 || h.L2TLBWays != 0 {
		cfg.L2Entries, cfg.L2Ways = h.L2TLB, h.L2TLBWays
	}
	ts.TLB = cfg
	if h.NoPSC {
		ts.PSC = &mmucache.PSCConfig{}
	} else if h.PSCL2 != 0 || h.PSCL3 != 0 || h.PSCL4 != 0 || h.PSCL5 != 0 {
		var psc mmucache.PSCConfig
		psc.EntriesPerLevel[2] = h.PSCL2
		psc.EntriesPerLevel[3] = h.PSCL3
		psc.EntriesPerLevel[4] = h.PSCL4
		psc.EntriesPerLevel[5] = h.PSCL5
		ts.PSC = &psc
	}
	return ts
}

// HardwareInfo describes the translation hardware a run executed on —
// the geometry echo RunResult carries so BENCH records are
// self-describing. It is informational: replay comparison ignores it.
type HardwareInfo struct {
	// Backend is the canonical backend name.
	Backend string `json:"backend"`
	// Levels is the walk depth; VABits the translated virtual-address
	// width.
	Levels int `json:"levels"`
	VABits int `json:"va_bits"`
	// TLB entry counts per array (ways in the matching Ways fields);
	// L2TLB 0 means the backend has no second TLB level.
	L1TLB4K     int `json:"l1_tlb_4k"`
	L1TLB4KWays int `json:"l1_tlb_4k_ways"`
	L1TLB2M     int `json:"l1_tlb_2m"`
	L1TLB2MWays int `json:"l1_tlb_2m_ways"`
	L2TLB       int `json:"l2_tlb,omitempty"`
	L2TLBWays   int `json:"l2_tlb_ways,omitempty"`
	// PSC lists paging-structure cache entries per level, level 2 first.
	PSC []int `json:"psc,omitempty"`
}

// hardwareInfo renders a backend geometry as the public echo form.
func hardwareInfo(g translate.Geometry) HardwareInfo {
	return HardwareInfo{
		Backend:     g.Backend,
		Levels:      g.Levels,
		VABits:      g.VABits,
		L1TLB4K:     g.TLB.L1Entries4K,
		L1TLB4KWays: g.TLB.L1Ways4K,
		L1TLB2M:     g.TLB.L1Entries2M,
		L1TLB2MWays: g.TLB.L1Ways2M,
		L2TLB:       g.TLB.L2Entries,
		L2TLBWays:   g.TLB.L2Ways,
		PSC:         g.PSC,
	}
}

// Hardware returns the geometry of the translation backend this system
// booted with.
func (s *System) Hardware() HardwareInfo {
	return hardwareInfo(s.k.HardwareGeometry())
}
