package bench

import (
	"runtime"
	"testing"
)

func TestCurrentHost(t *testing.T) {
	want := Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if got := CurrentHost(); got != want {
		t.Errorf("CurrentHost() = %+v, want %+v", got, want)
	}
}
