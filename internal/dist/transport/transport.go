// Package transport supplies the distributed executor's worker
// connections (DESIGN.md §13): byte streams the coordinator speaks the
// frame protocol over. The coordinator neither knows nor cares what
// carries the bytes — a Transport hands it io.ReadWriteClosers and can
// replace one after a loss, which is the whole recovery seam.
//
// One implementation ships: Pipes spawns dtnsim-worker processes
// locally and wires their stdin/stdout. It is pure process plumbing:
// no simulation state, no RNG, and wall-clock use only for the
// shutdown watchdog, which cannot influence simulation results.
package transport

import "io"

// Transport establishes and replaces worker connections for the
// distributed coordinator.
type Transport interface {
	// Dial connects all n workers at once, index-aligned with the
	// coordinator's worker slots. On error no connections are retained.
	Dial(n int) ([]io.ReadWriteCloser, error)
	// Redial replaces worker i's connection after the coordinator lost
	// it. The caller has already closed (or given up on) the old
	// connection. A transport that cannot replace connections returns an
	// error, which makes worker loss fatal for the run.
	Redial(i int) (io.ReadWriteCloser, error)
	// Close releases transport-owned resources — spawned processes are
	// reaped, for instance. The coordinator closes the connections
	// themselves before calling Close.
	Close() error
}

// closeAll closes every connection in rwcs, for teardown paths.
func closeAll(rwcs []io.ReadWriteCloser) {
	for _, rwc := range rwcs {
		if rwc != nil {
			rwc.Close()
		}
	}
}
