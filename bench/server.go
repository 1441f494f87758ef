package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
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

// The one full-stack configuration every workload's server runs with.
// Flush policy: every append is fsynced to the WAL before it is
// acknowledged (-data-sync=true); the log folds into a segment every
// 1024 appends.
const (
	resultCacheBytes = 8 << 20
	admitCeiling     = 8
	admitFloor       = 2
	admitTarget      = 100 * time.Millisecond
	dataFold         = 1024
)

func serverFlags(addr, dataDir string, facts int) []string {
	return []string{
		"-addr", addr, "-gen", strconv.Itoa(facts), "-seed", strconv.Itoa(dataSeed),
		"-planner", "-columns", strconv.Itoa(columnMinValues), "-result-cache", strconv.Itoa(resultCacheBytes),
		"-delta", "-batch", "-admission", strconv.Itoa(admitCeiling), "-admit-floor", strconv.Itoa(admitFloor),
		"-admit-target", admitTarget.String(), "-parallelism", "1", "-metrics",
		"-data", dataDir, "-data-sync=true", "-data-fold", strconv.Itoa(dataFold),
	}
}

// leftovers tracks what an interrupted benchmark (SIGINT/SIGTERM, see
// main) must still clean up: the live mdserve children and the temporary
// data directories.
var leftovers struct {
	mu       sync.Mutex
	children map[*server]bool
	dirs     map[string]bool
}

func trackChild(s *server, alive bool) {
	leftovers.mu.Lock()
	defer leftovers.mu.Unlock()
	if leftovers.children == nil {
		leftovers.children = map[*server]bool{}
	}
	if alive {
		leftovers.children[s] = true
	} else {
		delete(leftovers.children, s)
	}
}

// makeTempDir creates a temporary directory under parent.
func makeTempDir(parent, prefix string) (string, error) {
	dir, err := os.MkdirTemp(parent, prefix)
	if err != nil {
		return "", err
	}
	leftovers.mu.Lock()
	defer leftovers.mu.Unlock()
	if leftovers.dirs == nil {
		leftovers.dirs = map[string]bool{}
	}
	leftovers.dirs[dir] = true
	return dir, nil
}

// removeTempDir removes a directory makeTempDir created ("" is a no-op).
func removeTempDir(dir string) {
	if dir == "" {
		return
	}
	os.RemoveAll(dir)
	leftovers.mu.Lock()
	delete(leftovers.dirs, dir)
	leftovers.mu.Unlock()
}

// cleanUpLeftovers kills every live child, waits for each to end, and
// removes every temporary directory.
func cleanUpLeftovers() {
	leftovers.mu.Lock()
	var children []*server
	for s := range leftovers.children {
		children = append(children, s)
	}
	var dirs []string
	for d := range leftovers.dirs {
		dirs = append(dirs, d)
	}
	leftovers.mu.Unlock()
	for _, s := range children {
		s.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// server is one spawned mdserve child.
type server struct {
	cmd    *exec.Cmd
	addr   string // 127.0.0.1:port
	base   string // http://addr
	stderr bytes.Buffer
	exited chan struct{}
	// setup is spawn → first 200 on /healthz.
	setup time.Duration
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the child binds it; a collision in that gap fails the
// spawn loudly rather than silently measuring another process.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts mdserve on dataDir and waits until /healthz answers 200.
func spawn(bin, dataDir string, facts int, client *http.Client) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, serverFlags(addr, dataDir, facts)...)
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	trackChild(s, true)
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed child is not an error here
		trackChild(s, false)
		close(s.exited)
	}()
	deadline := start.Add(2 * time.Minute)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("mdserve exited before becoming healthy: %s", strings.TrimSpace(s.stderr.String()))
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("mdserve not healthy after %s", time.Since(start).Round(time.Second))
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL — a crash, not a shutdown: nothing is flushed or
// folded on the way out — and waits until the child is gone.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
}

// cpuTicks reads the child's utime+stime (clock ticks, USER_HZ = 100).
func (s *server) cpuTicks() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, so the 12th and 13th after ")".
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat cpu fields %q %q", f[11], f[12])
	}
	return ut + st, nil
}

const msPerTick = 10 // 1000 / USER_HZ

// peakRSSMB reads the child's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads the child's /metrics.
func (s *server) scrape(client *http.Client) (promSample, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics returned %s", resp.Status)
	}
	return parseProm(resp.Body), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
