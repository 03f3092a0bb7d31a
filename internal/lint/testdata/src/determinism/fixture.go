// Fixture for the determinism analyzer; package name faultsim puts it in
// the analyzer's scope.
package faultsim

import (
	"fmt"
	"math/rand"
	"time"
)

func wallClock() time.Duration {
	start := time.Now() // want "time.Now reads the wall clock"
	n := rand.Int()     // want "rand.Int uses the process-global source"
	_ = n
	//lint:ignore determinism fixture exercises the suppression path
	t := time.Now()
	_ = t
	return time.Since(start) // want "time.Since reads the wall clock"
}

func seeded() int64 {
	r := rand.New(rand.NewSource(42)) // explicitly seeded: replayable
	return r.Int63()
}

func durationMathIsFine(d time.Duration) time.Duration {
	return d + 3*time.Millisecond
}

func mapOrderAppend(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k) // want "append inside a map-range loop"
	}
	return out
}

func mapOrderPrint(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want "fmt.Println inside a map-range loop"
	}
}

func mapOrderConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want "string concatenation inside a map-range loop"
	}
	return s
}

func mapToMapIsFine(m map[string]int) (map[string]int, int) {
	out := make(map[string]int, len(m))
	total := 0
	for k, v := range m {
		out[k] = v
		total += v
	}
	return out, total
}

func sliceAppendIsFine(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
