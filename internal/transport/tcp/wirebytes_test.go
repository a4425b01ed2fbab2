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
// over two in-process workers. The totals were recorded from the build
// before the frame codec kept its buffers; the format did not change, so
// neither may they.
func TestWireBytesUnchanged(t *testing.T) {
	c, _ := dialWorkers(t, testConfig(), newEchoHost(), newEchoHost())
	ctx := context.Background()
	push := func(kind transport.StateKind, payload []byte) {
		t.Helper()
		if err := c.PushState(ctx, kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	push(transport.StateSetup, bytes.Repeat([]byte{0xa5}, 40_000))
	push(transport.StateFactors, bytes.Repeat([]byte{0x5a}, 3_000))
	for stage, tasks := range []int{4, 5, 2} {
		spec := transport.Spec{Name: "eval:A", Kind: transport.KindEval, Col: 2 * stage, Tasks: tasks}
		if err := c.Run(ctx, spec, func(transport.TaskResult) error { return nil }); err != nil {
			t.Fatal(err)
		}
		push(transport.StateColumn, bytes.Repeat([]byte{byte(stage)}, 100+stage))
	}
	const wantSent, wantReceived = 87306, 1048
	if sent, received := c.WireBytes(); sent != wantSent || received != wantReceived {
		t.Fatalf("WireBytes() = %d sent, %d received; the parent's codec moved %d and %d", sent, received, wantSent, wantReceived)
	}
}
