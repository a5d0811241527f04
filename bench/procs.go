package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildRoot holds the build cache, the binaries and the per-run scratch
// directories. Like the results and traces beside it, it is under bench/out:
// inside the checkout (the benchmark writes nowhere else) and ignored by
// bench/.gitignore.
var buildRoot = filepath.Join("bench", "out", "build")

// binaries are the programs under test, built once per run from ./cmd.
type binaries struct {
	dir    string
	buildS float64
}

func (b *binaries) path(name string) string { return filepath.Join(b.dir, name) }

// buildBinaries compiles carolserve, carolgate and caroltrain into
// bench/out/build/bin. With a warm build cache this takes a fraction of a
// second; its time is reported as bench.build_s and is not part of setup_s.
func buildBinaries() (*binaries, error) {
	dir, err := filepath.Abs(filepath.Join(buildRoot, "bin"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/carolserve", "./cmd/carolgate", "./cmd/caroltrain")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build: %w\n%s", err, out.String())
	}
	return &binaries{dir: dir, buildS: time.Since(start).Seconds()}, nil
}

// binaries builds on first use, so the in-process workloads never pay for
// it.
func (e *env) binaries() (*binaries, error) {
	if e.bins == nil {
		b, err := buildBinaries()
		if err != nil {
			return nil, err
		}
		e.bins = b
	}
	return e.bins, nil
}

// scratchDir creates a fresh directory under buildRoot for one set-up.
func scratchDir(prefix string) (string, error) {
	root, err := filepath.Abs(buildRoot)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix+"-")
}

// tailBuffer keeps the last lines a child wrote, for error reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[len(t.lines)-20:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// proc is one server child. The goroutine reading its stderr ends when the
// child closes the pipe; stop waits for both.
type proc struct {
	name   string
	cmd    *exec.Cmd
	addr   string
	tail   *tailBuffer
	logEOF chan struct{}
}

// live holds the children that are running, so that a panic, an error
// path or a signal cannot leave one behind.
var live struct {
	mu    sync.Mutex
	procs map[*proc]bool
}

func trackProc(p *proc, running bool) {
	live.mu.Lock()
	defer live.mu.Unlock()
	if live.procs == nil {
		live.procs = make(map[*proc]bool)
	}
	if running {
		live.procs[p] = true
	} else {
		delete(live.procs, p)
	}
}

// killLeftBehind kills every child still running and returns their names.
// A clean run stops its children itself, so a non-empty answer fails it.
func killLeftBehind() []string {
	live.mu.Lock()
	var left []*proc
	for p := range live.procs {
		left = append(left, p)
	}
	live.mu.Unlock()
	var names []string
	for _, p := range left {
		names = append(names, p.name)
		p.kill()
	}
	sort.Strings(names)
	return names
}

var listenRE = regexp.MustCompile(`listening on (\S+?),?(\s|$)`)

// startServer launches a server binary on an ephemeral port, learns the
// port from its "listening on" log line and waits until /readyz answers
// 200. The child is killed if it does not get there within the deadline.
func startServer(bins *binaries, name string, args ...string) (*proc, error) {
	cmd := exec.Command(bins.path(name), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, tail: &tailBuffer{}, logEOF: make(chan struct{})}
	trackProc(p, true)
	addrCh := make(chan string, 1) // the log reader sends the address once
	go func() {
		defer close(p.logEOF)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.tail.add(line)
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				addrCh <- m[1]
				sent = true
			}
		}
	}()
	deadline := time.After(20 * time.Second)
	select {
	case p.addr = <-addrCh:
	case <-p.logEOF:
		p.kill()
		return nil, fmt.Errorf("%s exited before listening:\n%s", name, p.tail)
	case <-deadline:
		p.kill()
		return nil, fmt.Errorf("%s did not report its address:\n%s", name, p.tail)
	}
	for {
		resp, err := http.Get(p.url("/readyz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused; the status is what matters
			_ = resp.Body.Close()                 // a body that was only read
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-deadline:
			p.kill()
			return nil, fmt.Errorf("%s not ready on %s:\n%s", name, p.addr, p.tail)
		case <-p.logEOF:
			p.kill()
			return nil, fmt.Errorf("%s exited before ready:\n%s", name, p.tail)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (p *proc) url(pathAndQuery string) string { return "http://" + p.addr + pathAndQuery }

// kill force-stops a child that never became ready.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine: Wait below reports the state
	<-p.logEOF
	_ = p.cmd.Wait() // the caller already reports why the child is being killed
	trackProc(p, false)
}

// rssPeakMiB reads the child's peak resident set from /proc; 0 if the
// platform has no such file.
func (p *proc) rssPeakMiB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kib, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					return kib / 1024
				}
			}
		}
	}
	return 0
}

// stop sends SIGTERM, waits for the drain and reports a child that exits
// non-zero or has to be killed: either invalidates the run.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: SIGTERM: %w", p.name, err)
	}
	done := make(chan error, 1)
	go func() {
		<-p.logEOF
		done <- p.cmd.Wait()
	}()
	defer trackProc(p, false)
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s exited uncleanly: %w\n%s", p.name, err, p.tail)
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill() // Wait below reports the outcome
		<-done
		return fmt.Errorf("%s ignored SIGTERM and was killed:\n%s", p.name, p.tail)
	}
}

// stopAll stops every process and joins the errors.
func stopAll(procs ...*proc) error {
	var errs []error
	for _, p := range procs {
		if p != nil {
			errs = append(errs, p.stop())
		}
	}
	return errors.Join(errs...)
}

// publishModels runs caroltrain once per codec into dir. The training set
// is fixed (it does not depend on the seed): the published model is part of
// the system under test.
func publishModels(bins *binaries, dir string, codecs []string) error {
	for _, c := range codecs {
		cmd := exec.Command(bins.path("caroltrain"), "-codec", c, "-model-dir", dir,
			"-datasets", trainDatasets, "-dims", "32x32x32",
			"-forest-cap", strconv.Itoa(libForestCap), "-seed", "1")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("caroltrain %s: %w\n%s", c, err, out.String())
		}
	}
	return nil
}

// newClient returns an HTTP client limited to conns connections to the
// server: the load comes from one process with at most nproc connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}
