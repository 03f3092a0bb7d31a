package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestCurrentHost(t *testing.T) {
	want := Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if got := CurrentHost(); got != want {
		t.Errorf("CurrentHost() = %+v, want %+v", got, want)
	}
}

var sink []byte

// TestAllocsPerCall: one allocation in every other call is 0.5 a call,
// where testing.AllocsPerRun's integer quotient reads 0.
func TestAllocsPerCall(t *testing.T) {
	i := 0
	got := AllocsPerCall(t.Logf, 100, func() {
		if i++; i%2 == 0 {
			sink = make([]byte, 64)
		}
	})
	if got != 0.5 {
		t.Errorf("one allocation every other call: %v a call, want 0.5", got)
	}
	if got := AllocsPerCall(t.Logf, 10, func() {}); got != 0 {
		t.Errorf("no allocation: %v a call, want 0", got)
	}
}

// TestAllocsPerCallLogsAMissInOneMeasurement: an allocation that f makes
// in the first measurement only is hidden in the least, and so must show
// in the log.
func TestAllocsPerCallLogsAMissInOneMeasurement(t *testing.T) {
	calls := 0
	var logged []string
	got := AllocsPerCall(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}, 100, func() {
		if calls++; calls <= 101 {
			sink = make([]byte, 64)
		}
	})
	if got != 0 {
		t.Errorf("an allocation in the first measurement only: %v a call, want the least, 0", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "[1 0]") {
		t.Errorf("logged %q, want the measurements [1 0]", logged)
	}
}
