//go:build !linux

package ssd

// io_uring is Linux-only: off Linux the backend has no ring pool and every
// read goes through the portable pread pool.
type (
	uringRing struct{}
	ringPool  struct{}
)

func newRingPool(*FileBackend) *ringPool        { return nil }
func (*ringPool) get() *uringRing               { return nil }
func (*ringPool) close()                        {}
func (*FileQueue) ringSubmit(int, fileReq) bool { return false }
func (*FileQueue) ringDrain()                   {}
