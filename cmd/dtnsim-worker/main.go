// Command dtnsim-worker is the worker half of the distributed executor
// (DESIGN.md §13). It is not run by hand: the benchmark's replay_dist
// workload spawns it, speaks the internal/dist/frame protocol over its
// stdin/stdout (a Hello handshake, one Init, then epoch rounds), and
// closes stdin to shut it down. It takes no flags and no arguments.
//
// All simulation state lives in the coordinator; the worker only
// executes the epoch items it is sent over the node snapshots (or
// cache references) shipped with them and answers with the states they
// left — patches, when the coordinator's Hello allows — so it keeps no
// files: stderr is its only other channel.
package main

import (
	"flag"
	"fmt"
	"os"

	"dtnsim/internal/dist"
)

func main() {
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := dist.Serve(os.Stdin, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtnsim-worker:", err)
	os.Exit(1)
}
