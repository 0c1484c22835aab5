package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// env is what one benchmark process shares across workloads: where the
// repository is, where the freshly built binaries are, and a scratch
// root for data directories. Everything lives under root/.bench_build so
// a run reads and writes only inside its checkout.
type env struct {
	root    string // repository root (holds go.mod and cmd/)
	bin     string // directory with fixserve and fixindex
	scratch string // per-process scratch directory
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "fixserve", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root (go.mod + cmd/fixserve) not found above the working directory")
		}
		dir = parent
	}
}

// newEnv locates the repository, builds cmd/fixserve and cmd/fixindex
// from the working tree and creates the scratch directory. Compile time
// is deliberately outside every metric. The go tool inherits the
// environment: bench/run.sh points its caches into the checkout.
func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(build, "bin")}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/fixserve", "./cmd/fixindex")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/fixserve and cmd/fixindex: %w\n%s", err, out)
	}
	e.scratch, err = os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) cleanup() { _ = os.RemoveAll(e.scratch) }

// server is one running fixserve process.
type server struct {
	cmd   *exec.Cmd
	addr  string
	pid   int
	args  []string
	log   *os.File
	bin   string
	alive bool
}

// freeAddr asks the kernel for a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches fixserve with args (plus -addr) and returns once
// /readyz answers 200. The process dies with the harness (Pdeathsig), so
// no failure path can leak it.
func (e *env) startServer(ctx context.Context, logPath string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, args: args, log: logf, bin: filepath.Join(e.bin, "fixserve")}
	if err := s.launch(ctx); err != nil {
		_ = logf.Close()
		return nil, err
	}
	return s, nil
}

func (s *server) launch(ctx context.Context) error {
	s.cmd = exec.Command(s.bin, append([]string{"-addr", s.addr}, s.args...)...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return err
	}
	s.pid, s.alive = s.cmd.Process.Pid, true
	running.Lock()
	running.pids[s.pid] = true
	running.Unlock()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st, _, err := sideChannel("GET", "http://"+s.addr+"/readyz"); err == nil && st == http.StatusOK {
			return nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) || !processExists(s.pid) {
			s.kill()
			tail, _ := os.ReadFile(s.log.Name())
			return fmt.Errorf("fixserve %v never became ready; its log ends:\n%s", s.args, tail[max(0, len(tail)-2000):])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// running lists the fixserve processes that have been started and not
// yet reaped, for the one path that cannot unwind to their owners: the
// watchdog of a stuck run (killRunning).
var running = struct {
	sync.Mutex
	pids map[int]bool
}{pids: map[int]bool{}}

func reaped(pid int) {
	running.Lock()
	delete(running.pids, pid)
	running.Unlock()
}

// killRunning SIGKILLs every fixserve still running and waits for it.
func killRunning() {
	running.Lock()
	defer running.Unlock()
	for pid := range running.pids {
		_ = syscall.Kill(pid, syscall.SIGKILL)
		_, _ = syscall.Wait4(pid, nil, 0, nil) // ECHILD when its owner's Wait got there first
	}
}

// processExists reports whether pid is still a running (non-zombie is
// not distinguished) process.
func processExists(pid int) bool {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return false
	}
	i := bytes.LastIndexByte(b, ')')
	return i >= 0 && i+2 < len(b) && b[i+2] != 'Z'
}

// drain stops the server gracefully (SIGTERM: in-flight requests, final
// checkpoint) and waits for it to exit.
func (s *server) drain() error {
	if !s.alive {
		return nil
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		s.alive = false
		reaped(s.pid)
		return err
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		s.alive = false
		reaped(s.pid)
		return errors.New("fixserve did not exit within 60s of SIGTERM")
	}
}

// kill SIGKILLs the server and reaps it: the crash of the durability
// check, and the cleanup of every error path.
func (s *server) kill() {
	if !s.alive {
		return
	}
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
	s.alive = false
	reaped(s.pid)
}

// close releases the log file after the last launch has ended.
func (s *server) close() {
	s.kill()
	_ = s.log.Close()
}

// sideChannel is the untimed channel to the server (readiness, /metrics,
// /healthz, /admin/checkpoint): one short-lived connection per call,
// never the load connection.
func sideChannel(method, url string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, nil, err
	}
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 60 * time.Second}).Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches a JSON document from the server's side channel.
func (s *server) getJSON(path string, v any) error {
	st, b, err := sideChannel("GET", "http://"+s.addr+path)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, st, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// conn is the load connection: one keep-alive TCP connection speaking
// HTTP/1.1 with pre-built request bytes, so the timed loop does no
// request construction and provably never opens a second connection.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do sends one pre-built request and reads the whole response.
func (c *conn) do(req []byte, body *bytes.Buffer) (status int, err error) {
	if err := c.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.Close {
		err = errors.New("server closed the keep-alive connection")
	}
	return resp.StatusCode, err
}

// getRequest pre-builds the bytes of a GET.
func getRequest(pathAndQuery string) []byte {
	return []byte("GET " + pathAndQuery + " HTTP/1.1\r\nHost: fixload\r\n\r\n")
}

// postNDJSON pre-builds the bytes of an NDJSON POST.
func postNDJSON(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: fixload\r\nContent-Type: application/x-ndjson\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	return b.Bytes()
}
