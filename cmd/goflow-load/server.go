package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverModule is the module the harness must be run inside: it builds
// goflow-server from this source tree, never a binary found elsewhere.
const serverModule = "module github.com/urbancivics/goflow"

// buildDir is where the harness keeps everything it writes besides
// results: the server binary, the Go build cache the wrapper script
// points at, and the per-run temp directories.
const buildDir = ".bench_build"

// findRoot checks that the working directory is the repository root.
func findRoot() (string, error) {
	root, err := os.Getwd()
	if err != nil {
		return "", err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.Contains(string(mod), serverModule+"\n") {
		return "", fmt.Errorf("run goflow-load from the repository root (no goflow go.mod in %s)", root)
	}
	return root, nil
}

// buildServer compiles cmd/goflow-server from the tree at root.
func buildServer(root string) (string, error) {
	out := filepath.Join(root, buildDir, "goflow-server")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/goflow-server")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build goflow-server: %v\n%s", err, msg)
	}
	return out, nil
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the server binds it, so a collision is possible in
// principle; startServer's health wait turns one into a clear error.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// serverProc is one launched goflow-server.
type serverProc struct {
	cmd      *exec.Cmd
	mqAddr   string
	httpAddr string
	log      *os.File
	// done closes once the process has been reaped; waitErr is its
	// exit status.
	done    chan struct{}
	waitErr error
	// setup is exec → first 200 on /v1/healthz.
	setup time.Duration
}

func (s *serverProc) base() string { return "http://" + s.httpAddr }
func (s *serverProc) pid() int     { return s.cmd.Process.Pid }

// live tracks every server this process started so that an interrupt
// or a panic path can take them all down.
var live struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

func killAllServers() {
	live.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// startServer launches the real binary with -series -predict on free
// loopback ports against walDir and waits for its health probe. The
// server runs in its own process group and dies with the harness.
func startServer(bin, walDir, logPath string, extra []string) (*serverProc, error) {
	mqAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := []string{
		"-mq", mqAddr, "-http", httpAddr, "-wal-dir", walDir,
		"-series", "-predict",
		// Sweep often enough that every timed window holds several, not
		// zero or one depending on where the minute boundary falls.
		"-forecast-interval", "2s",
		"-metrics-interval", "0",
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	s := &serverProc{cmd: cmd, mqAddr: mqAddr, httpAddr: httpAddr, log: logFile, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start goflow-server: %w", err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*serverProc]struct{})
	}
	live.procs[s] = struct{}{}
	live.Unlock()

	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base() + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.done:
			s.kill()
			return nil, fmt.Errorf("goflow-server exited during start-up (%v); see %s", s.waitErr, logPath)
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("goflow-server not healthy after 60s; see %s", logPath)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// kill delivers SIGKILL to the server's process group — the crash the
// durability claims are made against — and reaps it.
func (s *serverProc) kill() {
	_ = syscall.Kill(-s.pid(), syscall.SIGKILL)
	<-s.done
	s.log.Close()
	live.Lock()
	delete(live.procs, s)
	live.Unlock()
}

// procSample is what /proc says about the server at one instant.
type procSample struct {
	utime, stime time.Duration
	ctxSwitches  float64
	hwmMiB       float64
	writeBytes   float64
}

func (p procSample) cpu() time.Duration { return p.utime + p.stime }

// clockTick is USER_HZ; Linux fixes it at 100 for /proc on every
// architecture Go supports.
const clockTick = 10 * time.Millisecond

// sampleProc reads CPU time, context switches (all threads), peak RSS
// and bytes sent to the block layer.
func sampleProc(pid int) (procSample, error) {
	var out procSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return out, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return out, errors.New("short /proc stat line")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	out.utime = time.Duration(ut) * clockTick
	out.stime = time.Duration(st) * clockTick

	out.hwmMiB = statusField(dir+"/status", "VmHWM:") / 1024
	tasks, _ := os.ReadDir(dir + "/task")
	for _, t := range tasks {
		p := dir + "/task/" + t.Name() + "/status"
		out.ctxSwitches += statusField(p, "voluntary_ctxt_switches:") + statusField(p, "nonvoluntary_ctxt_switches:")
	}
	out.writeBytes = statusField(dir+"/io", "write_bytes:")
	return out, nil
}

// statusField returns the first number after key in a /proc key-value
// file, 0 when absent.
func statusField(path, key string) float64 {
	fh, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// selfCPU is the harness's own CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
