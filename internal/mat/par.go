package mat

import "repro/internal/par"

// parGrain converts a per-item flop estimate into a chunk grain for par.For.
func parGrain(perItem int) int { return par.Grain(perItem) }

// detGrain is parGrain for reductions (par.MapReduceDet and the serial paths
// that must fold like its single chunk): planned from the shape alone.
func detGrain(perItem int) int { return par.DetGrain(perItem) }
