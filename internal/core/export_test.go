package core

import (
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

// Replicate is a convenience for SetMask over every node of the machine —
// full replication, the configuration the paper's multi-socket experiments
// use.
func (s *Space) Replicate(ctx *pvops.OpCtx) error {
	all := make([]numa.NodeID, s.pm.Topology().Nodes())
	for i := range all {
		all[i] = numa.NodeID(i)
	}
	return s.SetMask(ctx, all)
}
