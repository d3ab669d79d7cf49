// Package loopback is a miniature of the paper's Drift emulation testbed
// (Sec. 5): protocol nodes run against *real* operating-system transport
// (UDP sockets on the loopback interface, the stand-in for Drift's Gigabit
// Ethernet), while the wireless PHY is a model — a channel-emulator process
// receives every "broadcast" datagram and forwards it to each in-range
// receiver's socket with an independent per-link loss draw.
//
// Where internal/sim runs virtual time for large parameter sweeps, this
// package runs wall-clock time over real sockets: it validates that the
// coding stack, the wire format of internal/coding, and the rate-paced
// forwarding discipline survive an actual network path. Scenarios are kept
// small (seconds of wall time) so the test suite stays fast.
package loopback

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/topology"
)

// Config parameterizes one emulated session over real sockets.
type Config struct {
	// Coding are the RLC parameters; keep generations small (the session
	// runs in wall-clock time).
	Coding coding.Params
	// Scheme selects the coding strategy (full-recoding RLNC by default);
	// non-recoding schemes make relays forward innovative packets verbatim
	// over the real sockets.
	Scheme coding.Scheme
	// Redundancy caps the source at ceil(Redundancy * GenerationSize)
	// packets per generation; 0 is rateless.
	Redundancy float64
	// Rates[i] is the broadcast pacing rate of local node i in
	// bytes/second (from the rate controller; destination ignored).
	Rates []float64
	// Duration is the wall-clock run time.
	Duration time.Duration
	// Seed drives the channel's loss process.
	Seed int64
}

// Result summarizes a real-socket session.
type Result struct {
	// GenerationsDecoded counts fully decoded generations; the decoded
	// payloads were verified against the source data byte for byte.
	GenerationsDecoded int
	// DatagramsForwarded counts channel-emulator deliveries (post-loss).
	DatagramsForwarded int64
	// DatagramsDropped counts PHY loss draws that failed.
	DatagramsDropped int64
	// Corrupted counts decoded generations whose data failed verification
	// (always 0 unless something is broken).
	Corrupted int
}

// RunSession emulates one OMNC unicast session over loopback UDP: one
// goroutine per node with its own socket, a channel-emulator goroutine
// applying the PHY model of the supplied subgraph, rate-paced re-encoding
// forwarders, and a verified progressive decoder at the destination.
func RunSession(net_ *topology.Network, sg *core.Subgraph, cfg Config) (*Result, error) {
	if err := cfg.Coding.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Scheme.Valid() {
		return nil, fmt.Errorf("%w: %d", coding.ErrInvalidScheme, int(cfg.Scheme))
	}
	if err := coding.ValidateRedundancy(cfg.Redundancy); err != nil {
		return nil, err
	}
	if len(cfg.Rates) != sg.Size() {
		return nil, fmt.Errorf("loopback: %d rates for %d nodes", len(cfg.Rates), sg.Size())
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}

	em, err := newEmulator(net_, sg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer em.close()

	nodes := make([]*emuNode, sg.Size())
	for i := range nodes {
		n, err := newEmuNode(i, sg, em, cfg)
		if err != nil {
			em.close()
			return nil, err
		}
		nodes[i] = n
	}
	em.nodeAddrs = make([]*net.UDPAddr, len(nodes))
	for i, n := range nodes {
		em.nodeAddrs[i] = n.addr()
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		em.run(stop)
	}()
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.run(stop)
		}()
	}

	time.Sleep(cfg.Duration)
	close(stop)
	// Unblock reads.
	em.conn.SetReadDeadline(time.Now())
	for _, n := range nodes {
		n.conn.SetReadDeadline(time.Now())
	}
	wg.Wait()
	for _, n := range nodes {
		n.conn.Close()
	}

	dst := nodes[sg.Dst]
	res := &Result{
		GenerationsDecoded: dst.decoded,
		Corrupted:          dst.corrupted,
		DatagramsForwarded: em.forwarded,
		DatagramsDropped:   em.dropped,
	}
	return res, nil
}

// emulator is the channel process: every node broadcast arrives here and is
// forwarded per-link with loss.
type emulator struct {
	net       *topology.Network
	sg        *core.Subgraph
	conn      *net.UDPConn
	nodeAddrs []*net.UDPAddr

	mu        sync.Mutex
	rng       *rand.Rand
	forwarded int64
	dropped   int64
}

func newEmulator(net_ *topology.Network, sg *core.Subgraph, seed int64) (*emulator, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("loopback: channel socket: %w", err)
	}
	return &emulator{
		net:  net_,
		sg:   sg,
		conn: conn,
		rng:  rand.New(rand.NewSource(seed)),
	}, nil
}

func (em *emulator) close() { em.conn.Close() }

func (em *emulator) addr() *net.UDPAddr { return em.conn.LocalAddr().(*net.UDPAddr) }

// run forwards datagrams until stop closes. Datagram layout: one byte
// sender (local node index) followed by a coding wire message.
func (em *emulator) run(stop <-chan struct{}) {
	buf := make([]byte, 65536)
	for {
		select {
		case <-stop:
			return
		default:
		}
		em.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, _, err := em.conn.ReadFromUDP(buf)
		if err != nil {
			continue // deadline or shutdown
		}
		if n < 1 {
			continue
		}
		sender := int(buf[0])
		if sender < 0 || sender >= em.sg.Size() {
			continue
		}
		payload := make([]byte, n-1)
		copy(payload, buf[1:n])
		senderNet := em.sg.Nodes[sender]
		for _, j := range em.sg.Neighbors(sender) {
			p := em.net.Prob(senderNet, em.sg.Nodes[j])
			em.mu.Lock()
			hit := em.rng.Float64() < p
			em.mu.Unlock()
			if !hit {
				em.mu.Lock()
				em.dropped++
				em.mu.Unlock()
				continue
			}
			if _, err := em.conn.WriteToUDP(payload, em.nodeAddrs[j]); err == nil {
				em.mu.Lock()
				em.forwarded++
				em.mu.Unlock()
			}
		}
	}
}
