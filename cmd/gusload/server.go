package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildBinaries compiles gusgen and gusserve from the module rooted at
// moduleDir into binDir. The go command's own cache makes a repeat build a
// staleness check.
func buildBinaries(ctx context.Context, moduleDir, binDir string) error {
	if _, err := os.Stat(filepath.Join(moduleDir, "go.mod")); err != nil {
		return fmt.Errorf("run from the module root: %w", err)
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs+string(filepath.Separator), "./cmd/gusgen", "./cmd/gusserve")
	cmd.Dir = moduleDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// generateData runs gusgen into dir: segments plus Bernoulli(0.02)
// synopses, every value a function of seed.
func generateData(ctx context.Context, binDir, dir string, orders int, seed uint64) error {
	cmd := exec.CommandContext(ctx, filepath.Join(binDir, "gusgen"),
		"-orders", strconv.Itoa(orders), "-format", "segment", "-synopsis", "0.02",
		"-seed", strconv.FormatUint(seed, 10), "-out", dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("gusgen: %w\n%s", err, out)
	}
	return nil
}

// server is a running gusserve subprocess.
type server struct {
	cmd    *exec.Cmd
	log    *os.File
	base   string        // http://127.0.0.1:port
	exited chan struct{} // closed once the process has been reaped
}

// startServer launches gusserve over dataDir on a free loopback port —
// default workers, auditor and pprof off — and returns once /healthz
// answers. The request log goes to logPath.
func startServer(ctx context.Context, binDir, dataDir, logPath string) (*server, error) {
	// Bind-and-release to learn a free port; nothing else on the loopback
	// of a benchmark box races for it in the microseconds before gusserve
	// binds it again.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, "gusserve"), "-addr", addr, "-data", dataDir)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	s := &server{cmd: cmd, log: logFile, base: "http://" + addr}
	exited := make(chan struct{})
	go func() {
		// Reaps the child if it dies during start-up; stop() waits on the
		// same channel, so the process is never waited twice.
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		close(exited)
	}()
	s.exited = exited
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := ctx.Err(); err != nil {
			s.stop()
			return nil, err
		}
		select {
		case <-exited:
			s.log.Close()
			tail, _ := os.ReadFile(logPath) // best effort: the log only decorates the error
			return nil, fmt.Errorf("gusserve exited during start-up:\n%s", tail)
		default:
		}
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("gusserve not healthy after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the server and waits until the process has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // already-exited is fine
		<-s.exited
	}
	s.log.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times. Linux has
// fixed it at 100 on every architecture Go supports.
const clockTick = 100

// procCPU returns the process's consumed CPU time, user plus system.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable CPU times in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSS returns VmHWM, the process's peak resident set, in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
