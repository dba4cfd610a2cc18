package main

// Shard-process harness: the conv-shards workload runs its model over
// shard server processes (re-executions of this binary in shard mode,
// hosting remote.NewServer on a unix socket). A shard's lifetime is
// tied to its standard input: it reports its CPU time and peak RSS on
// request and once more when its input closes, then exits. So no shard
// outlives the benchmark, whether the benchmark stops normally, fails
// or is killed.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"github.com/neurogo/neurogo"
)

// procUsage is what a shard process reports about itself.
type procUsage struct {
	CPUNanos  int64 `json:"cpu_ns"`
	PeakRSSKB int64 `json:"peak_rss_kb"`
}

// shardProc is one running shard server process.
type shardProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
}

// shardSet is the shard processes serving one mapping.
type shardSet struct {
	dir   string
	procs []*shardProc
}

// shardStartTimeout bounds how long a shard may take to load its
// mapping and listen.
const shardStartTimeout = 60 * time.Second

// startShards writes m into a fresh directory under parent and starts
// one shard process per partition slot, each on a unix socket in that
// directory. It returns once every shard accepts connections. On error
// every process already started is stopped.
func startShards(m *neurogo.Mapping, shards int, parent string) (*shardSet, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "shards-")
	if err != nil {
		return nil, err
	}
	set := &shardSet{dir: dir}
	mpPath := filepath.Join(dir, "model.nmap")
	if err := writeMapping(mpPath, m); err != nil {
		set.stop()
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		set.stop()
		return nil, err
	}
	for i := 0; i < shards; i++ {
		// A relative socket path keeps the address short however deep
		// the checkout is; every process shares the working directory.
		addr := filepath.Join(dir, fmt.Sprintf("s%d.sock", i))
		cmd := exec.Command(exe, "-shard-serve",
			"-mapping", mpPath, "-shards", strconv.Itoa(shards),
			"-shard", strconv.Itoa(i), "-listen", addr)
		cmd.Stderr = os.Stderr
		// A shard evaluates its chips on one goroutine; one P keeps the
		// three processes of a 2-shard run from contending for threads.
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		// Kill the shard if this process dies without closing its input.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		stdin, err := cmd.StdinPipe()
		if err != nil {
			set.stop()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			set.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			set.stop()
			return nil, fmt.Errorf("start shard %d: %w", i, err)
		}
		set.procs = append(set.procs, &shardProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout), addr: addr})
	}
	for i, p := range set.procs {
		if err := p.awaitReady(); err != nil {
			set.stop()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return set, nil
}

func writeMapping(path string, m *neurogo.Mapping) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := neurogo.SaveMapping(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// awaitReady waits for the shard's "ready" line.
func (p *shardProc) awaitReady() error {
	line, err := p.readLine(shardStartTimeout)
	if err != nil {
		return err
	}
	if line != "ready" {
		return fmt.Errorf("unexpected start-up line %q", line)
	}
	return nil
}

// readLine reads one line of the shard's output within d. On a timeout
// the shard is killed, which unblocks the pending read.
func (p *shardProc) readLine(d time.Duration) (string, error) {
	type lineErr struct {
		line string
		err  error
	}
	ch := make(chan lineErr, 1)
	go func() {
		line, err := p.out.ReadString('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' {
			line = line[:len(line)-1]
		}
		ch <- lineErr{line, err}
	}()
	select {
	case r := <-ch:
		return r.line, r.err
	case <-time.After(d):
		p.cmd.Process.Kill()
		<-ch
		return "", errors.New("shard did not answer in time")
	}
}

// addrs returns the shard addresses in partition order.
func (s *shardSet) addrs() []string {
	out := make([]string, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.addr
	}
	return out
}

// usage asks every shard for its CPU time and peak RSS so far.
func (s *shardSet) usage() ([]procUsage, error) {
	out := make([]procUsage, len(s.procs))
	for i, p := range s.procs {
		if _, err := io.WriteString(p.stdin, "usage\n"); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		line, err := p.readLine(10 * time.Second)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if err := json.Unmarshal([]byte(line), &out[i]); err != nil {
			return nil, fmt.Errorf("shard %d usage %q: %w", i, line, err)
		}
	}
	return out, nil
}

// stop closes every shard's input, collects the usage each reports on
// exit, waits for every process to end (killing one that does not end
// within a few seconds) and removes the shard directory. The returned
// usage has a zero entry for a shard that did not report.
func (s *shardSet) stop() ([]procUsage, error) {
	out := make([]procUsage, len(s.procs))
	var firstErr error
	for _, p := range s.procs {
		p.stdin.Close()
	}
	for i, p := range s.procs {
		line, err := p.readLine(5 * time.Second)
		if err == nil {
			err = json.Unmarshal([]byte(line), &out[i])
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d exit report: %w", i, err)
		}
		done := make(chan error, 1)
		go func() { done <- p.cmd.Wait() }()
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			p.cmd.Process.Kill()
			err = <-done
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if err := os.RemoveAll(s.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return out, firstErr
}

// selfUsage reports this process's CPU time and peak RSS.
func selfUsage() procUsage {
	kb, _ := peakRSSKiB()
	return procUsage{CPUNanos: int64(cpuTime()), PeakRSSKB: kb}
}

// serveShard is the shard-process mode: load the mapping, serve shard
// `shard` of `shards` on the unix socket at listen, print "ready",
// then answer each "usage" line on standard input with a JSON usage
// line, and on end of input close the server, print the final usage
// and return.
func serveShard(mappingPath, listen string, shards, shard int) error {
	f, err := os.Open(mappingPath)
	if err != nil {
		return err
	}
	m, err := neurogo.LoadMapping(f)
	f.Close()
	if err != nil {
		return err
	}
	srv, err := neurogo.NewShardServer(m, shards, shard)
	if err != nil {
		return err
	}
	os.Remove(listen) // a stale socket would block the listen
	ln, err := net.Listen("unix", listen)
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	out := bufio.NewWriter(os.Stdout)
	report := func() error {
		b, err := json.Marshal(selfUsage())
		if err != nil {
			return err
		}
		out.Write(b)
		out.WriteByte('\n')
		return out.Flush()
	}
	if _, err := out.WriteString("ready\n"); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() == "usage" {
			if err := report(); err != nil {
				return err
			}
		}
	}
	srv.Close()
	if err := <-served; err != nil {
		return err
	}
	return report()
}
