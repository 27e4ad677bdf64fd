//go:build exhaustive

package server

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAppendFloat32Exhaustive walks all 2³² bit patterns against strconv,
// in 2²⁴-pattern shards spread over the CPUs (about four minutes per core
// pair). Run with: go test -tags exhaustive -run Exhaustive -timeout 60m
func TestAppendFloat32Exhaustive(t *testing.T) {
	const shards = 256
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got [maxFloat32Len]byte
			want := make([]byte, 0, 32)
			for s := next.Add(1) - 1; s < shards; s = next.Add(1) - 1 {
				b := uint32(s) << 24
				for i := 0; i < 1<<24; i, b = i+1, b+1 {
					n := putFloat32(got[:], b)
					want = strconvFloat32(want[:0], b)
					if !bytes.Equal(got[:n], want) && bad.Add(1) <= 20 {
						t.Errorf("bits %#08x: kernel %q, strconv %q", b, got[:n], want)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d of 2^32 patterns differ from strconv", n)
	}
}
