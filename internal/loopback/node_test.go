package loopback

import (
	"net"
	"testing"

	"omnc/internal/coding"
)

// nodeUnderTest builds an emuNode in the given role without starting its
// loops: handle and completeGeneration only touch the emulator through
// nodeAddrs, which stays empty here, so the node can be driven directly.
func nodeUnderTest(t *testing.T, local int) *emuNode {
	t.Helper()
	_, sg := diamond(t)
	cfg := Config{Coding: coding.Params{GenerationSize: 4, BlockSize: 16}, Seed: 9}
	n, err := newEmuNode(local, sg, &emulator{sg: sg, nodeAddrs: make([]*net.UDPAddr, sg.Size())}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.conn.Close() })
	return n
}

func TestResetGenerationWiresRoles(t *testing.T) {
	_, sg := diamond(t)
	src := nodeUnderTest(t, sg.Src)
	if src.enc == nil || src.gen == nil || src.rec != nil || src.dec != nil {
		t.Fatalf("source wiring: enc=%v gen=%v rec=%v dec=%v", src.enc, src.gen, src.rec, src.dec)
	}
	dst := nodeUnderTest(t, sg.Dst)
	if dst.dec == nil || dst.enc != nil || dst.rec != nil {
		t.Fatalf("destination wiring: dec=%v enc=%v rec=%v", dst.dec, dst.enc, dst.rec)
	}
	if string(dst.expect) != string(generationData(dst.cfg, 0)) {
		t.Fatal("destination expects the wrong generation data")
	}
	var relayLocal int
	for i := 0; i < sg.Size(); i++ {
		if i != sg.Src && i != sg.Dst {
			relayLocal = i
			break
		}
	}
	relay := nodeUnderTest(t, relayLocal)
	if relay.rec == nil || relay.enc != nil || relay.dec != nil {
		t.Fatalf("relay wiring: rec=%v enc=%v dec=%v", relay.rec, relay.enc, relay.dec)
	}
}

func TestHandleAckAdvancesGeneration(t *testing.T) {
	_, sg := diamond(t)
	n := nodeUnderTest(t, sg.Src)
	oldEnc := n.enc
	n.handle(&coding.Message{Type: coding.MessageAck, Generation: 3})
	if n.currentGen != 3 {
		t.Fatalf("currentGen = %d after ACK for 3", n.currentGen)
	}
	if n.enc == oldEnc {
		t.Fatal("ACK did not rebuild the source encoder")
	}
	// A stale ACK (same or older generation) must be ignored.
	n.handle(&coding.Message{Type: coding.MessageAck, Generation: 2})
	if n.currentGen != 3 {
		t.Fatalf("stale ACK rewound the generation to %d", n.currentGen)
	}
}

func TestHandleDataFillsRelayAndIgnoresWrongGeneration(t *testing.T) {
	_, sg := diamond(t)
	var relayLocal int
	for i := 0; i < sg.Size(); i++ {
		if i != sg.Src && i != sg.Dst {
			relayLocal = i
			break
		}
	}
	relay := nodeUnderTest(t, relayLocal)
	src := nodeUnderTest(t, sg.Src)

	// A current-generation packet lands in the recoder.
	pkt := src.enc.Next()
	relay.handle(&coding.Message{Type: coding.MessageData, Generation: 0, Packet: pkt})
	if relay.nextPacket() == nil {
		t.Fatal("relay cannot re-encode after an innovative reception")
	}

	// A wrong-generation packet is dropped before touching the recoder.
	stale := src.enc.Next()
	stale.Generation = 7
	before := relay.rec
	relay.handle(&coding.Message{Type: coding.MessageData, Generation: 7, Packet: stale})
	if relay.rec != before {
		t.Fatal("wrong-generation packet rewired the recoder")
	}

	// The source ignores data packets entirely.
	src.handle(&coding.Message{Type: coding.MessageData, Generation: 0, Packet: relay.nextPacket()})
	if src.decoded != 0 || src.corrupted != 0 {
		t.Fatal("source counted a decode")
	}
}

func TestDestinationDecodesAndVerifies(t *testing.T) {
	_, sg := diamond(t)
	dst := nodeUnderTest(t, sg.Dst)
	src := nodeUnderTest(t, sg.Src)

	// Feed encoder output until the full rank decodes; completeGeneration
	// verifies the payload against the deterministic source data and moves
	// both counters and the generation forward.
	for i := 0; i < 32 && dst.decoded == 0; i++ {
		dst.handle(&coding.Message{Type: coding.MessageData, Generation: 0, Packet: src.enc.Next()})
	}
	if dst.decoded != 1 || dst.corrupted != 0 {
		t.Fatalf("decoded=%d corrupted=%d", dst.decoded, dst.corrupted)
	}
	if dst.currentGen != 1 {
		t.Fatalf("generation did not advance: %d", dst.currentGen)
	}
	if string(dst.expect) != string(generationData(dst.cfg, 1)) {
		t.Fatal("destination still expects generation 0 data")
	}
}
