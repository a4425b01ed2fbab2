package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dbtf/internal/cluster"
	"dbtf/internal/core"
	"dbtf/internal/gen"
	"dbtf/internal/serve"
)

// served is one running dbtf-serve process: its base URL and its stdout
// lines. exited is closed once the process has exited; err is its exit.
type served struct {
	cmd    *exec.Cmd
	url    string
	lines  chan string
	exited chan struct{}
	err    error
}

// startServe starts bin over data on an ephemeral port, two machines, no
// timeslice, and waits for its address line.
func startServe(t *testing.T, bin, data string) *served {
	t.Helper()
	p := &served{cmd: exec.Command(bin, "-addr", "127.0.0.1:0", "-slice", "-1", "-machines", "2", "-data", data),
		lines: make(chan string, 64), exited: make(chan struct{})}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = os.Stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The pipe is read to its end before Wait, which closes it.
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		select {
		case <-p.exited:
		default:
			_ = p.cmd.Process.Kill() // reaped below whatever Kill returns
			<-p.exited
		}
	})
	const prefix = "dbtf-serve listening on "
	line := p.next(t)
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("dbtf-serve printed %q, want its address line", line)
	}
	p.url = "http://" + strings.TrimPrefix(line, prefix)
	return p
}

// next is the process's next stdout line.
func (p *served) next(t *testing.T) string {
	t.Helper()
	select {
	case line, ok := <-p.lines:
		if !ok {
			t.Fatal("dbtf-serve closed its stdout")
		}
		return line
	case <-time.After(30 * time.Second):
		t.Fatal("dbtf-serve printed nothing for 30 s")
	}
	return ""
}

// terminate sends SIGTERM and holds the process to its drain: it announces
// the drain, reports zero lost jobs, and exits 0.
func (p *served) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"draining", "drained, zero lost jobs"} {
		if line := p.next(t); !strings.Contains(line, want) {
			t.Fatalf("dbtf-serve printed %q after SIGTERM, want a %q line", line, want)
		}
	}
	select {
	case <-p.exited:
		if p.err != nil {
			t.Fatalf("dbtf-serve exited with %v after SIGTERM, want exit 0", p.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dbtf-serve did not exit within 30 s of its drain")
	}
}

// do sends one request and decodes a response of status want into v.
func do(t *testing.T, method, url string, body io.Reader, want int, v any) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
}

// poll reads the job until until holds.
func poll(t *testing.T, url string, until func(serve.JobView) bool) serve.JobView {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		var v serve.JobView
		if do(t, http.MethodGet, url, nil, http.StatusOK, &v); until(v) {
			return v
		}
	}
	t.Fatalf("GET %s: timed out", url)
	return serve.JobView{}
}

// TestSIGTERMDrainsAndRestartResumes runs the dbtf-serve binary. A job is
// running when SIGTERM arrives; the process drains, says so and exits 0. A
// second process over the same -data resumes the job, which ends evicted at
// least once and with the factors of one uninterrupted run on two machines.
func TestSIGTERMDrainsAndRestartResumes(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dbtf-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building dbtf-serve: %v\n%s", err, out)
	}
	data := t.TempDir()
	x, _, _, _ := gen.FromFactors(rand.New(rand.NewSource(7)), 40, 40, 40, 4, 0.3)
	var upload bytes.Buffer
	if err := x.WriteBinary(&upload); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(serve.JobSpec{Tenant: "acme", TensorID: "x", Rank: 4, MaxIter: 200, MinIter: 200, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}

	first := startServe(t, bin, data)
	var stored map[string]any
	var job serve.JobView
	do(t, http.MethodPost, first.url+"/v1/tensors/x", &upload, http.StatusCreated, &stored)
	do(t, http.MethodPost, first.url+"/v1/jobs", bytes.NewReader(spec), http.StatusAccepted, &job)
	poll(t, first.url+"/v1/jobs/"+job.ID, func(v serve.JobView) bool { return v.Progress != nil && v.Progress.Iterations > 0 })
	first.terminate(t)

	second := startServe(t, bin, data)
	v := poll(t, second.url+"/v1/jobs/"+job.ID, func(v serve.JobView) bool { return v.State.Terminal() })
	second.terminate(t)
	want, err := core.Decompose(context.Background(), x, cluster.New(cluster.Config{Machines: 2}), v.Spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	if v.State != serve.StateDone || v.Evictions < 1 || v.Result.FactorHash != serve.FactorHash(want.A, want.B, want.C) {
		t.Fatalf("the resumed job ended %s after %d evictions with %+v; one uninterrupted run has factor hash %s",
			v.State, v.Evictions, v.Result, serve.FactorHash(want.A, want.B, want.C))
	}
}
