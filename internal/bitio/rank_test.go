package bitio

import (
	"math/rand"
	"testing"
)

// naiveRank1 is the bit-at-a-time oracle for Rank1.
func naiveRank1(buf []byte, i int) int {
	if i > len(buf)*8 {
		i = len(buf) * 8
	}
	n := 0
	for p := 0; p < i; p++ {
		if buf[p>>3]&(0x80>>uint(p&7)) != 0 {
			n++
		}
	}
	return n
}

func randBitmap(rng *rand.Rand, nbytes int, density float64) []byte {
	buf := make([]byte, nbytes)
	for i := range buf {
		var b byte
		for bit := 0; bit < 8; bit++ {
			if rng.Float64() < density {
				b |= 0x80 >> uint(bit)
			}
		}
		buf[i] = b
	}
	return buf
}

func TestRank1AgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, nbytes := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 200, 1024} {
		for _, density := range []float64{0, 0.05, 0.5, 0.95, 1} {
			buf := randBitmap(rng, nbytes, density)
			for _, i := range []int{-1, 0, 1, 7, 8, 9, nbytes*4 + 3, nbytes*8 - 1, nbytes * 8, nbytes*8 + 17} {
				got, want := Rank1(buf, i), 0
				if i > 0 {
					want = naiveRank1(buf, i)
				}
				if got != want {
					t.Fatalf("Rank1(%d bytes, i=%d) = %d, want %d", nbytes, i, got, want)
				}
			}
		}
	}
}

var sinkInt int

func BenchmarkRank1(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	buf := randBitmap(rng, 8192, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += Rank1(buf, (i*977)%(len(buf)*8))
	}
	sinkInt = n
}
