package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/serve"
)

// server is one memschedd process.
type server struct {
	name      string
	cmd       *exec.Cmd
	url       string // serving listener
	debugURL  string // -debug-addr listener; "" for the router
	exited    chan struct{}
	exitError error
}

// cluster is the set of processes one workload runs against.
type cluster struct {
	replicas []*server
	router   *server // nil without a router
	routed   bool    // the client drives the router, not replica 0
}

// topology says which processes a workload needs.
type topology struct {
	replicas  int
	router    bool
	cacheSize int // -cache; 0 keeps the server default
	traceKeep int // -trace-keep; 0 keeps the server default
}

// front is the URL the client drives.
func (c *cluster) front() string {
	if c.routed {
		return c.router.url
	}
	return c.replicas[0].url
}

func (c *cluster) all() []*server {
	all := append([]*server(nil), c.replicas...)
	if c.router != nil {
		all = append(all, c.router)
	}
	return all
}

// freeAddrs reserves n distinct loopback ports long enough to learn their
// numbers; all are held open together so no two of them coincide.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startServer launches memschedd on addr with logging off; its stderr
// (lifecycle lines and crash output) goes to logDir/<name>.log. A
// non-empty debugAddr opens the -debug-addr listener.
func startServer(bin, logDir, name, addr, debugAddr string, args ...string) (*server, error) {
	s := &server{name: name, url: "http://" + addr, exited: make(chan struct{})}
	args = append([]string{"-addr", addr, "-log-level", "off"}, args...)
	if debugAddr != "" {
		s.debugURL = "http://" + debugAddr
		args = append(args, "-debug-addr", debugAddr)
	}
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The servers must not outlive the benchmark, even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		s.exitError = s.cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	return s, nil
}

// stop asks the server to drain and waits for it to exit, killing it
// after a grace period.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func (c *cluster) stop() {
	for _, s := range c.all() {
		s.stop()
	}
}

// startCluster launches the replicas, waits until they answer /healthz,
// then launches the router (if any) in front of them and waits for it.
func startCluster(bin, logDir string, top topology) (*cluster, error) {
	c := &cluster{routed: top.router}
	var args []string
	if top.cacheSize > 0 {
		args = append(args, "-cache", strconv.Itoa(top.cacheSize))
	}
	if top.traceKeep > 0 {
		args = append(args, "-trace-keep", strconv.Itoa(top.traceKeep))
	}
	// Each replica needs a serving and a debug port, the router one.
	addrs, err := freeAddrs(2*top.replicas + 1)
	if err != nil {
		return nil, err
	}
	var spec []string
	for i := 0; i < top.replicas; i++ {
		id := "r" + strconv.Itoa(i)
		s, err := startServer(bin, logDir, "replica-"+id, addrs[2*i], addrs[2*i+1], append([]string{"-replica-id", id}, args...)...)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.replicas = append(c.replicas, s)
		spec = append(spec, id+"="+s.url)
	}
	for _, s := range c.replicas {
		if err := waitHealthy(s); err != nil {
			c.stop()
			return nil, err
		}
	}
	if top.router {
		s, err := startServer(bin, logDir, "router", addrs[2*top.replicas], "", "-router", strings.Join(spec, ","))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.router = s
		if err := waitHealthy(s); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

var probe = &http.Client{Timeout: 2 * time.Second}

// waitHealthy polls /healthz until it answers 200 "ok".
func waitHealthy(s *server) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("%s exited during start-up: %v", s.name, s.exitError)
		default:
		}
		var h struct {
			Status string `json:"status"`
		}
		if code, err := getJSON(probe, s.url+"/healthz", &h); err == nil && code == http.StatusOK && h.Status == "ok" {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s did not become healthy", s.name)
}

// getJSON GETs url and decodes a JSON body into out.
func getJSON(c *http.Client, url string, out any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// health reads a replica's /healthz.
func (s *server) health() (serve.HealthResponse, error) {
	var h serve.HealthResponse
	code, err := getJSON(probe, s.url+"/healthz", &h)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s /healthz: status %d", s.name, code)
	}
	return h, err
}

// healths reads every replica's /healthz.
func healths(cl *cluster) ([]serve.HealthResponse, error) {
	out := make([]serve.HealthResponse, len(cl.replicas))
	for i, s := range cl.replicas {
		var err error
		if out[i], err = s.health(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cpuOf returns the process's user+system CPU time so far.
func cpuOf(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// cpu sums the CPU time of every process of the cluster.
func (c *cluster) cpu() (time.Duration, error) {
	var total time.Duration
	for _, s := range c.all() {
		d, err := cpuOf(s.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s cpu: %w", s.name, err)
		}
		total += d
	}
	return total, nil
}

// metric reads one unlabelled sample from the server's /metrics.
func (s *server) metric(name string) (float64, error) {
	resp, err := probe.Get(s.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return parseMetric(resp.Body, name)
}

// sumMetric sums a metric over the replicas.
func (c *cluster) sumMetric(name string) (float64, error) {
	var total float64
	for _, s := range c.replicas {
		v, err := s.metric(name)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.name, err)
		}
		total += v
	}
	return total, nil
}

// liveHeap forces a GC on every replica through its debug listener's heap
// profile, then sums go_memstats_heap_alloc_bytes. heap_alloc counts the
// garbage allocated since the last GC too, so the profile is asked for in
// text form (debug=1): the default gzip-compressed form leaves about 1.5 MB
// of compressor state behind, and whether a GC has reclaimed it by the
// time /metrics is read varies from run to run. A reading without the
// forced GC depends on where the collector happened to be.
func (c *cluster) liveHeap() (float64, error) {
	for _, s := range c.replicas {
		resp, err := probe.Get(s.debugURL + "/debug/pprof/heap?gc=1&debug=1")
		if err != nil {
			return 0, fmt.Errorf("%s forced GC: %w", s.name, err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("%s forced GC: %w", s.name, err)
		}
	}
	return c.sumMetric("go_memstats_heap_alloc_bytes")
}

// client drives one server over one keep-alive connection per host.
type client struct {
	http *http.Client
}

func newClient() *client {
	return &client{http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// post sends body to url and returns the status and the whole response
// body (read fully, so the connection is reused).
func (c *client) post(url string, body []byte, requestID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set(serve.RequestIDHeader, requestID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// errorCode extracts the structured error code of a non-2xx body.
func errorCode(body []byte) string {
	var e serve.ErrorResponse
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Code
}
