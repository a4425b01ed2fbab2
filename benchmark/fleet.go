package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanups holds what must be undone on every exit path — normal return,
// error, panic, SIGINT: worker processes to kill, directories to remove.
// A leaked worker keeps a core busy and corrupts every later timing, so
// the list is run by main's defer and by the signal handler alike.
var cleanups struct {
	mu  sync.Mutex
	fns map[int]func()
	seq int
}

// onExit registers fn and returns the call that unregisters it.
func onExit(fn func()) (cancel func()) {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	if cleanups.fns == nil {
		cleanups.fns = map[int]func(){}
	}
	id := cleanups.seq
	cleanups.seq++
	cleanups.fns[id] = fn
	return func() {
		cleanups.mu.Lock()
		delete(cleanups.fns, id)
		cleanups.mu.Unlock()
	}
}

// runCleanups runs and clears everything registered.
func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// repoRoot walks up from the working directory to the checkout of module
// dbtf: the benchmark is a module of its own one level below it.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module dbtf\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout of module dbtf above the working directory")
		}
		dir = parent
	}
}

// buildWorker compiles cmd/dbtf-worker from the checkout's source into
// outDir and returns the binary. Building is outside every timed region.
func buildWorker(outDir string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "dbtf-worker"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dbtf-worker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building dbtf-worker: %v\n%s", err, out)
	}
	return bin, nil
}

const listeningPrefix = "dbtf-worker listening on "

// workerHost starts fleets from one dbtf-worker binary and remembers the
// previous fleet's processes, so a new cycle refuses to run next to a
// leaked one.
type workerHost struct {
	bin  string
	prev []int
}

// fleet is a set of dbtf-worker processes on ephemeral loopback ports.
type fleet struct {
	Addrs  []string
	host   *workerHost
	cmds   []*exec.Cmd
	cancel func()
}

// start spawns n single-threaded workers (GOMAXPROCS=1 each, so two
// workers plus the coordinator's waits fit the host's two cores) and
// harvests their addresses from the "listening on" line.
func (h *workerHost) start(n int) (*fleet, error) {
	for _, pid := range h.prev {
		if syscall.Kill(pid, 0) == nil {
			return nil, fmt.Errorf("worker %d of the previous cycle is still alive", pid)
		}
	}
	f := &fleet{host: h}
	f.cancel = onExit(f.kill)
	for i := 0; i < n; i++ {
		cmd := exec.Command(h.bin, "-listen", "127.0.0.1:0", "-threads", "1", "-q")
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			f.kill()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			f.kill()
			return nil, fmt.Errorf("starting worker: %w", err)
		}
		f.cmds = append(f.cmds, cmd)
		line := make(chan string, 1)
		go func() {
			defer close(line)
			sc := bufio.NewScanner(stdout)
			if sc.Scan() {
				line <- sc.Text()
			}
			// Keep draining so the worker never blocks on a full pipe.
			for sc.Scan() {
			}
		}()
		select {
		case l, ok := <-line:
			if !ok || !strings.HasPrefix(l, listeningPrefix) {
				f.kill()
				return nil, fmt.Errorf("worker printed %q, want %q<addr>", l, listeningPrefix)
			}
			f.Addrs = append(f.Addrs, strings.TrimPrefix(l, listeningPrefix))
		case <-time.After(10 * time.Second):
			f.kill()
			return nil, errors.New("worker never printed its listen address")
		}
	}
	return f, nil
}

// stop drains the workers with SIGTERM, falls back to SIGKILL, and
// returns only when every process has been reaped.
func (f *fleet) stop() error {
	defer f.cancel()
	f.host.prev = f.host.prev[:0]
	var firstErr error
	for _, c := range f.cmds {
		f.host.prev = append(f.host.prev, c.Process.Pid)
		_ = c.Process.Signal(syscall.SIGTERM) // already exited is fine: Wait reports it
	}
	for _, c := range f.cmds {
		done := make(chan error, 1)
		go func() { done <- c.Wait() }()
		select {
		case err := <-done:
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("worker %d: %w", c.Process.Pid, err)
			}
		case <-time.After(10 * time.Second):
			_ = c.Process.Kill() // the drain hung; Wait below reaps it
			<-done
			if firstErr == nil {
				firstErr = fmt.Errorf("worker %d ignored SIGTERM and was killed", c.Process.Pid)
			}
		}
	}
	f.cmds = nil
	return firstErr
}

// kill is the emergency path: no drain, no error, everything reaped.
func (f *fleet) kill() {
	for _, c := range f.cmds {
		_ = c.Process.Kill() // already exited is fine
		_ = c.Wait()         // reaping is the point; its error is the kill itself
	}
	f.cmds = nil
}
