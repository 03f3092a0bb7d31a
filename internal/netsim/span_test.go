package netsim_test

import (
	"errors"
	"testing"

	"qbism/internal/costmodel"
	"qbism/internal/faultsim"
	"qbism/internal/netsim"
	"qbism/internal/obs"
	"qbism/internal/transport"
)

// The span model of a round trip over the link: one rpc.<method> span,
// a net.request / server / net.response child per leg, byte and message
// counters on the crossings, and injected faults annotated by name on
// the leg they hit.

func echoLink() (*netsim.Link, *transport.Sim) {
	l := netsim.NewLink(costmodel.Default1993())
	return l, transport.NewSim(l, costmodel.Default1993(), func(sp *obs.Span, _ string, req []byte) ([]byte, error) {
		sp.Child("work").End()
		return req, nil
	})
}

func TestCallSpanTree(t *testing.T) {
	_, sim := echoLink()
	tr := obs.NewTracer()
	root := tr.Start("test")
	payload := []byte("twelve bytes")
	resp, err := sim.Call(root, "echo", payload)
	if err != nil || string(resp) != string(payload) {
		t.Fatalf("echo failed: %q, %v", resp, err)
	}
	root.End()

	rpc := root.Find("rpc.echo")
	if rpc == nil {
		t.Fatalf("no rpc span:\n%s", root.RenderString())
	}
	kids := rpc.Children()
	if len(kids) != 3 {
		t.Fatalf("rpc has %d children, want request/server/response", len(kids))
	}
	for i, want := range []string{"net.request", "server", "net.response"} {
		if kids[i].Name() != want {
			t.Errorf("child %d is %q, want %q", i, kids[i].Name(), want)
		}
	}
	if b, _ := root.Find("net.request").Int("bytes"); b != int64(len(payload)) {
		t.Errorf("request bytes attr = %d, want %d", b, len(payload))
	}
	if m, ok := root.Find("net.response").Int("messages"); !ok || m < 1 {
		t.Errorf("response messages attr = %d, %v", m, ok)
	}
	// The handler's own span nests under "server".
	if root.Find("server").Find("work") == nil {
		t.Error("handler span not nested under server")
	}
	// The untraced path still works and allocates nothing.
	if resp, err := sim.Call(nil, "echo", payload); err != nil || string(resp) != string(payload) {
		t.Fatalf("untraced Call: %q, %v", resp, err)
	}
}

// TestCallSpanFaultAnnotations schedules one fault of each visible kind
// on consecutive crossings and checks the failing leg carries the fault
// name, the rpc span carries the error, and latency records its
// simulated nanoseconds.
func TestCallSpanFaultAnnotations(t *testing.T) {
	cases := []struct {
		kind    faultsim.Kind
		name    string
		wantErr error
	}{
		{faultsim.Drop, "drop", netsim.ErrDropped},
		{faultsim.Timeout, "timeout", netsim.ErrLinkTimeout},
		{faultsim.Corrupt, "corrupt", netsim.ErrCorrupt},
		{faultsim.Latency, "latency", nil},
		{faultsim.Tamper, "tamper", nil},
	}
	for _, tc := range cases {
		l, sim := echoLink()
		l.SetFaults(faultsim.New(faultsim.Policy{
			ExtraLatency: 5e6,
			Schedule:     []faultsim.Scheduled{{Op: 1, Kind: tc.kind}},
		}))
		tr := obs.NewTracer()
		root := tr.Start("test")
		_, err := sim.Call(root, "echo", []byte("payload"))
		root.End()
		if tc.wantErr != nil {
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("%s: error %v, want %v", tc.name, err, tc.wantErr)
			}
			if _, ok := root.Find("rpc.echo").Str("error"); !ok {
				t.Errorf("%s: rpc span missing error annotation", tc.name)
			}
		} else if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		req := root.Find("net.request")
		if got, ok := req.Str("fault"); !ok || got != tc.name {
			t.Errorf("fault attr = %q (ok=%v), want %q\n%s", got, ok, tc.name, root.RenderString())
		}
		if tc.kind == faultsim.Latency {
			if ns, ok := req.Int("latencySimNs"); !ok || ns != 5e6 {
				t.Errorf("latencySimNs = %d (ok=%v), want 5e6", ns, ok)
			}
		}
	}
}
