package loopback

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"omnc/internal/coding"
	"omnc/internal/core"
)

// emuNode is one protocol node with a real UDP socket: the source encodes
// and paces fresh packets; relays re-encode innovative receptions and pace
// their own stream; the destination progressively decodes and ACKs new
// generations over the loopback control path (a second datagram type).
type emuNode struct {
	local int
	sg    *core.Subgraph
	em    *emulator
	cfg   Config
	conn  *net.UDPConn
	rng   *rand.Rand

	mu         sync.Mutex
	currentGen int
	gen        *coding.Generation
	enc        coding.Source
	rec        coding.Relay
	dec        *coding.Decoder
	expect     []byte // destination: the source data to verify against

	decoded   int
	corrupted int
}

// The session carries its verification data out of band: the source
// derives each generation's payload deterministically from the shared seed
// so the destination can check integrity without a side channel.
func generationData(cfg Config, gen int) []byte {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(gen)*0x9E3779B9))
	data := make([]byte, cfg.Coding.GenerationSize*cfg.Coding.BlockSize)
	rng.Read(data)
	return data
}

func newEmuNode(local int, sg *core.Subgraph, em *emulator, cfg Config) (*emuNode, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("loopback: node %d socket: %w", local, err)
	}
	n := &emuNode{
		local: local,
		sg:    sg,
		em:    em,
		cfg:   cfg,
		conn:  conn,
		rng:   rand.New(rand.NewSource(cfg.Seed + int64(local)*131)),
	}
	if err := n.resetGeneration(0); err != nil {
		conn.Close()
		return nil, err
	}
	return n, nil
}

func (n *emuNode) addr() *net.UDPAddr { return n.conn.LocalAddr().(*net.UDPAddr) }

func (n *emuNode) isSrc() bool { return n.local == n.sg.Src }
func (n *emuNode) isDst() bool { return n.local == n.sg.Dst }

func (n *emuNode) resetGeneration(gen int) error {
	n.currentGen = gen
	switch {
	case n.isSrc():
		g, err := coding.NewGeneration(gen, n.cfg.Coding, generationData(n.cfg, gen))
		if err != nil {
			return err
		}
		n.gen = g
		enc, err := coding.NewSource(n.cfg.Scheme, g, n.rng, n.cfg.Redundancy)
		if err != nil {
			return err
		}
		n.enc = enc
	case n.isDst():
		dec, err := coding.NewDecoder(gen, n.cfg.Coding)
		if err != nil {
			return err
		}
		n.dec = dec
		n.expect = generationData(n.cfg, gen)
	default:
		if n.rec != nil {
			n.rec.Close() // the expired generation's slabs and queue return to the arena
		}
		rec, err := coding.NewRelay(n.cfg.Scheme, gen, n.cfg.Coding, n.rng)
		if err != nil {
			return err
		}
		n.rec = rec
	}
	return nil
}

// run services the node until stop closes: a pacing loop transmits at the
// allocated rate; the socket loop absorbs receptions.
func (n *emuNode) run(stop <-chan struct{}) {
	var wg sync.WaitGroup
	if !n.isDst() && n.cfg.Rates[n.local] > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.paceLoop(stop)
		}()
	}
	n.receiveLoop(stop)
	wg.Wait()
}

// paceLoop broadcasts one coded packet every packetSize/rate seconds — the
// OMNC discipline: encode/re-encode on demand, transmit at the allotted
// rate.
func (n *emuNode) paceLoop(stop <-chan struct{}) {
	wireBytes := coding.WireSize(n.cfg.Coding)
	interval := time.Duration(float64(wireBytes) / n.cfg.Rates[n.local] * float64(time.Second))
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	buf := make([]byte, 1, 1+wireBytes)
	buf[0] = byte(n.local)
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		pkt := n.nextPacket()
		if pkt == nil {
			continue
		}
		wire, err := coding.MarshalData(0, pkt)
		pkt.Release() // marshalled onto the wire; the pooled reference is done
		if err != nil {
			continue
		}
		buf = append(buf[:1], wire...)
		n.conn.WriteToUDP(buf, n.em.addr())
	}
}

func (n *emuNode) nextPacket() *coding.Packet {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isSrc() {
		return n.enc.Next()
	}
	if n.rec == nil {
		return nil
	}
	return n.rec.Next()
}

// receiveLoop absorbs datagrams from the channel emulator.
func (n *emuNode) receiveLoop(stop <-chan struct{}) {
	buf := make([]byte, 65536)
	for {
		select {
		case <-stop:
			return
		default:
		}
		n.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		sz, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			continue
		}
		msg, err := coding.Unmarshal(buf[:sz])
		if err != nil {
			continue
		}
		n.handle(msg)
	}
}

func (n *emuNode) handle(msg *coding.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch msg.Type {
	case coding.MessageAck:
		// Generation turnover: everyone flushes and moves on.
		if int(msg.Generation) > n.currentGen {
			n.resetGeneration(int(msg.Generation))
		}
	case coding.MessageData:
		if msg.Packet.Generation != n.currentGen {
			return
		}
		pkt := msg.Packet.Clone() // the read buffer is reused
		switch {
		case n.isSrc():
			// The source ignores data packets.
		case n.isDst():
			if innovative, err := n.dec.Add(pkt); err == nil && innovative && n.dec.Decoded() {
				n.completeGeneration()
			}
		default:
			if n.rec != nil && !n.rec.Full() {
				n.rec.Add(pkt)
			}
		}
	}
}

// completeGeneration verifies the decode and broadcasts the ACK (via the
// channel emulator's control path: sent reliably to every node's socket
// directly, modelling the paper's best-path uncoded ACK).
func (n *emuNode) completeGeneration() {
	if string(n.dec.Data()) == string(n.expect) {
		n.decoded++
	} else {
		n.corrupted++
	}
	next := n.currentGen + 1
	n.resetGeneration(next)
	ack := coding.MarshalAck(0, uint32(next))
	for i, addr := range n.em.nodeAddrs {
		if i == n.local || addr == nil {
			continue
		}
		n.conn.WriteToUDP(ack, addr)
	}
}
