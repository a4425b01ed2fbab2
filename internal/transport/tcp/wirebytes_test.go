package tcp

import (
	"bytes"
	"context"
	"testing"

	"dbtf/internal/transport"
)

// TestWireBytesUnchanged pins the bytes a fixed exchange puts on the
// sockets: the handshakes, a set-up flush whose blob is large enough to be
// spliced, and three stages carrying piggy-backed factor and column pushes
// over two in-process workers: ten frames a side. The totals are the
// exchange's bytes at ProtoVersion 16; a change that is not a format change
// must not move them.
func TestWireBytesUnchanged(t *testing.T) {
	c, _ := dialWorkers(t, testConfig(), newEchoHost(), newEchoHost())
	ctx := context.Background()
	push := func(kind transport.StateKind, payload []byte) {
		t.Helper()
		if err := c.PushState(ctx, kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PushSetup(ctx, setupAll(c, bytes.Repeat([]byte{0xa5}, 40_000))); err != nil {
		t.Fatal(err)
	}
	push(transport.StateFactors, bytes.Repeat([]byte{0x5a}, 3_000))
	for stage, tasks := range []int{4, 5, 2} {
		spec := transport.Spec{Kind: transport.KindEval, Col: 2 * stage, Tasks: tasks}
		if err := c.Run(ctx, spec, func(transport.TaskResult) error { return nil }); err != nil {
			t.Fatal(err)
		}
		push(transport.StateColumn, bytes.Repeat([]byte{byte(stage)}, 100+stage))
	}
	const wantSent, wantReceived = 87230, 1008
	if sent, received := c.WireBytes(); sent != wantSent || received != wantReceived {
		t.Fatalf("WireBytes() = %d sent, %d received; want %d and %d", sent, received, wantSent, wantReceived)
	}
}
