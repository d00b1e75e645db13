// Command tracegen writes the contact plan of any mobility spec in the
// canonical trace format (readable by dtnsim -mob trace:PATH and
// dtnsim.ParseTrace), printing summary statistics to stderr. The spec
// grammar is dtnsim's: `dtnsim -list` prints it, and -mob/-seed resolve
// exactly as they do for dtnsim, so a written trace replays the run's
// mobility.
//
// Usage:
//
//	tracegen -mob cambridge -seed 42 -o cambridge.txt
//	tracegen -mob subscriber:nodes=20 -o rwp.txt
//	tracegen -mob interval:max=2000 -stats
//
// The -model, -nodes, -span and -maxinterval flags of earlier versions
// are spec arguments now; -nodes N and -span S become nodes=N and
// span=S:
//
//	| old flags                      | new flag            |
//	|--------------------------------|---------------------|
//	| -model trace                   | -mob cambridge      |
//	| -model rwp                     | -mob subscriber     |
//	| -model classic                 | -mob rwp            |
//	| -model interval -maxinterval M | -mob interval:max=M |
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dtnsim"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, writes the trace to stdout or the
// -o file and the statistics line to stderr, and returns the first
// error, the -o file's Close included.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mob := fs.String("mob", "cambridge", "mobility spec, as dtnsim -mob: cambridge, subscriber, rwp, interval:max=S, trace:PATH, with arguments such as rwp:nodes=40,span=5000 (dtnsim -list prints the grammar)")
	seed := fs.Uint64("seed", 42, "random seed (a spec's own seed=N takes precedence)")
	out := fs.String("o", "", "output file (default stdout)")
	statsOnly := fs.Bool("stats", false, "print statistics only, no trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	schedule, err := dtnsim.Scenario{Mobility: dtnsim.MobilitySpec(*mob), Seed: *seed}.Materialize()
	if err != nil {
		return err
	}
	fmt.Fprintln(stderr, dtnsim.AnalyzeSchedule(schedule))
	if *statsOnly {
		return nil
	}
	if *out == "" {
		return dtnsim.WriteTrace(stdout, schedule)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := dtnsim.WriteTrace(f, schedule); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
