package transport

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// killGrace is how long a worker gets to exit on its own after its
// stdin closes before the reaper kills it.
const killGrace = 5 * time.Second

// Pipes spawns worker processes locally and connects them over
// stdin/stdout pipes. Redial respawns a lost worker's process, so a
// crashed local worker is replaceable mid-run.
type Pipes struct {
	// Bin is the dtnsim-worker binary to spawn. Required.
	Bin string
	// Args are extra arguments passed to the worker binary.
	Args []string
	// Stderr receives the spawned workers' stderr; nil inherits the
	// coordinator's.
	Stderr io.Writer

	cmds []*exec.Cmd
}

// procConn adapts a worker's stdin/stdout pipe pair to
// io.ReadWriteCloser; Close closes the worker's stdin, which is the
// shutdown signal Serve honors as clean EOF.
type procConn struct {
	io.Reader // the worker's stdout
	io.WriteCloser
}

func (p procConn) Close() error { return p.WriteCloser.Close() }

// spawn starts one worker process and returns its pipe connection. On
// failure every pipe created along the way is closed before returning:
// a half-built worker must not leak its fds (cmd.Start's own error
// path closes them too, but the StdoutPipe-failure path would leak the
// already-built stdin pipe without this).
func (p *Pipes) spawn() (*exec.Cmd, io.ReadWriteCloser, error) {
	cmd := exec.Command(p.Bin, p.Args...)
	cmd.Stderr = p.Stderr
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, fmt.Errorf("stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdin.Close()
		return nil, nil, fmt.Errorf("stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		stdin.Close()
		stdout.Close()
		return nil, nil, fmt.Errorf("starting %s: %w", p.Bin, err)
	}
	return cmd, procConn{Reader: stdout, WriteCloser: stdin}, nil
}

// Dial implements Transport: spawn n worker processes. On any failure
// the already-started processes are torn down and nothing leaks.
func (p *Pipes) Dial(n int) ([]io.ReadWriteCloser, error) {
	if p.Bin == "" {
		return nil, errors.New("dist: no worker binary set")
	}
	conns := make([]io.ReadWriteCloser, 0, n)
	for i := 0; i < n; i++ {
		cmd, conn, err := p.spawn()
		if err != nil {
			closeAll(conns)
			p.Close()
			return nil, fmt.Errorf("dist: worker %d: %w", i, err)
		}
		p.cmds = append(p.cmds, cmd)
		conns = append(conns, conn)
	}
	return conns, nil
}

// Redial implements Transport: reap worker i's dead process and spawn
// a replacement. The old process's exit error is discarded — its loss
// already surfaced to the caller as the reason for this Redial.
func (p *Pipes) Redial(i int) (io.ReadWriteCloser, error) {
	if i < 0 || i >= len(p.cmds) {
		return nil, fmt.Errorf("dist: re-dial of unknown worker %d", i)
	}
	if cmd := p.cmds[i]; cmd != nil {
		p.cmds[i] = nil
		reap(cmd)
	}
	cmd, conn, err := p.spawn()
	if err != nil {
		return nil, fmt.Errorf("dist: respawning worker %d: %w", i, err)
	}
	p.cmds[i] = cmd
	return conn, nil
}

// Close implements Transport: reap every spawned worker, aggregating
// each worker's exit error so a crashed worker's identity reaches the
// caller. Callers close the connections (the workers' stdin) first, so
// a healthy worker exits on its own; one stuck past the grace period
// is killed rather than hanging Close.
func (p *Pipes) Close() error {
	var errs []error
	for i, cmd := range p.cmds {
		if cmd == nil {
			continue
		}
		if err := reap(cmd); err != nil {
			errs = append(errs, fmt.Errorf("dist: worker %d exited: %w", i, err))
		}
	}
	p.cmds = nil
	return errors.Join(errs...)
}

// reap waits for one worker process, killing it after the grace
// period. A watchdog kill's own failure is reported, not swallowed:
// the process may then still be alive, and the caller should know.
func reap(cmd *exec.Cmd) error {
	fired := make(chan error, 1)
	kill := time.AfterFunc(killGrace, func() { //lint:allow rngdiscipline shutdown watchdog: wall-clock grace before killing a stuck worker process; runs after the simulation finished, so it cannot affect results
		fired <- cmd.Process.Kill()
	})
	err := cmd.Wait()
	if !kill.Stop() {
		if kerr := <-fired; kerr != nil {
			err = errors.Join(err, fmt.Errorf("watchdog kill failed: %w", kerr))
		}
	}
	return err
}
