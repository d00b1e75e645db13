package core

// NewPool hands the external tests the in-tree goroutine pool as the
// EpochBackend the loop would build for Shards = k, so the seam's
// contract test can wrap it and pass it back through Config.Backend.
func NewPool(k int) EpochBackend { return newPool(k) }

// PoolKernels is how many kernels the loop's pool builds for Shards on
// a population of nodes.
func PoolKernels(shards, nodes int) int { return poolKernels(shards, nodes) }
