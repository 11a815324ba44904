package workloads

import (
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// collectSteps draws n accesses from a fresh thread of w.
func collectSteps(t *testing.T, w Workload, n int) ([]pt.VirtAddr, []bool, *Env) {
	t.Helper()
	k := smallKernel(t)
	env := setupEnv(t, k, w, 1)
	step := w.NewThread(env, 0)
	vas := make([]pt.VirtAddr, n)
	writes := make([]bool, n)
	for i := 0; i < n; i++ {
		vas[i], writes[i] = step()
	}
	return vas, writes, env
}

// TestAllAddressesInBounds: every generator must stay inside its mapped
// regions — an out-of-bounds address would segfault the simulated process.
func TestAllAddressesInBounds(t *testing.T) {
	all := append(MultiSocketSuite(), MigrationSuite()...)
	all = append(all, NewSTREAM())
	seen := map[string]bool{}
	for _, proto := range all {
		name := proto.Name()
		if seen[name] {
			name += "-wm"
		}
		seen[proto.Name()] = true
		w := shrink(proto)
		t.Run(name, func(t *testing.T) {
			vas, _, env := collectSteps(t, w, 5000)
			for _, va := range vas {
				inRegion := false
				for _, r := range env.regions {
					if va >= r.Base && uint64(va-r.Base) < r.Size {
						inRegion = true
						break
					}
				}
				if !inRegion {
					t.Fatalf("address %#x outside all regions", uint64(va))
				}
			}
		})
	}
}

// TestWriteFractions: the store mix drives the multi-socket 2MB coherence
// behaviour, so each workload's write fraction must stay near its design
// point.
func TestWriteFractions(t *testing.T) {
	cases := []struct {
		w        Workload
		min, max float64
	}{
		{shrink(NewGUPS()), 0.99, 1.0},       // pure updates
		{shrink(NewCanneal()), 0.49, 0.51},   // swap: half stores
		{shrink(NewHashJoin()), 0.0, 0.01},   // read-only probes
		{shrink(NewXSBench()), 0.0, 0.01},    // read-only lookups
		{shrink(NewBTree()), 0.0, 0.01},      // read-only lookups
		{shrink(NewRedis()), 0.10, 0.20},     // 0.30 of ops = stores; 2 steps/op
		{shrink(NewMemcached()), 0.02, 0.08}, // 0.10 of ops; 2 steps/op
		{shrink(NewSTREAM()), 0.45, 0.55},    // copy: alternating
	}
	for _, c := range cases {
		t.Run(c.w.Name(), func(t *testing.T) {
			_, writes, _ := collectSteps(t, c.w, 20000)
			n := 0
			for _, wr := range writes {
				if wr {
					n++
				}
			}
			frac := float64(n) / float64(len(writes))
			if frac < c.min || frac > c.max {
				t.Errorf("write fraction = %.3f, want [%.2f, %.2f]", frac, c.min, c.max)
			}
		})
	}
}

// TestUniformCoverage: the uniform-random workloads must spread accesses
// across their whole footprint (no dead quarters).
func TestUniformCoverage(t *testing.T) {
	for _, proto := range []Workload{NewGUPS(), NewXSBench(), NewCanneal()} {
		w := shrink(proto)
		t.Run(w.Name(), func(t *testing.T) {
			vas, _, env := collectSteps(t, w, 20000)
			var region Region
			switch w.Name() {
			case "GUPS":
				region = env.Region("table")
			case "XSBench":
				region = env.Region("grid")
			case "Canneal":
				region = env.Region("netlist")
			}
			quarters := [4]int{}
			for _, va := range vas {
				if va < region.Base || va >= region.Base+pt.VirtAddr(region.Size) {
					continue
				}
				q := uint64(va-region.Base) * 4 / region.Size
				quarters[q]++
			}
			total := quarters[0] + quarters[1] + quarters[2] + quarters[3]
			for q, n := range quarters {
				frac := float64(n) / float64(total)
				if frac < 0.15 || frac > 0.35 {
					t.Errorf("quarter %d holds %.1f%% of accesses, want ~25%%", q, frac*100)
				}
			}
		})
	}
}

// TestSequentialWorkloadsHaveLowTLBPressure: streaming access patterns must
// produce far fewer walks than random ones at equal footprint — the
// distinction behind the per-workload walk fractions.
func TestSequentialWorkloadsHaveLowTLBPressure(t *testing.T) {
	missRate := func(w Workload) float64 {
		k := smallKernel(t)
		env := setupEnv(t, k, w, 1)
		res, err := Run(env, w, 20000)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Total.Walks) / float64(res.Total.Ops)
	}
	stream := missRate(shrink(NewSTREAM()))
	gups := missRate(shrink(NewGUPS()))
	if stream >= gups/4 {
		t.Errorf("STREAM walk rate %.3f not well below GUPS %.3f", stream, gups)
	}
}

// TestScaleHelper: scaling preserves 2MB alignment and the minimum bound.
func TestScaleHelper(t *testing.T) {
	w := NewGUPS()
	Scale(w, 0.5)
	if w.FootprintBytes%(2<<20) != 0 {
		t.Errorf("scaled footprint %d not 2MB aligned", w.FootprintBytes)
	}
	Scale(w, 1e-9)
	if w.FootprintBytes != 8<<20 {
		t.Errorf("scaled footprint %d, want 8MB floor", w.FootprintBytes)
	}
	defer func() {
		if recover() == nil {
			t.Error("Scale of unknown type did not panic")
		}
	}()
	Scale(nil, 1)
}
