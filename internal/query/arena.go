package query

import "sync"

// The payload arena recycles the scratch buffers compressed frame bytes
// land in on the way to a decode. Every cache miss on the decode path
// used to allocate a payload-sized []byte, decode out of it, and drop
// it — at query fan-out rates that is the dominant per-request garbage.
// Pooling is safe because codec.Coder.Decode must not retain or alias
// its input (see the Coder contract): the bytes are dead the moment
// Decode returns. That is why this path never decodes through
// codec.ViewDecoder, whose result may alias its input: pooled bytes are
// rewritten by the next lease. A memory-mapped source skips the arena
// altogether (Engine.loadFrame), and its store.Reader.Frame views the
// immutable mapping instead of copying from it.
//
// Buffers above maxPooledPayload are not returned to the pool, so one
// pathological frame cannot pin a giant allocation for the process
// lifetime.
const maxPooledPayload = 16 << 20

var payloadPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// getPayloadBuf leases a scratch buffer (length 0, capacity whatever
// its last user grew it to). Pair with putPayloadBuf.
func getPayloadBuf() *[]byte {
	return payloadPool.Get().(*[]byte)
}

// putPayloadBuf returns a scratch buffer to the pool. The caller must
// not touch *bp afterwards.
func putPayloadBuf(bp *[]byte) {
	if cap(*bp) > maxPooledPayload {
		return
	}
	*bp = (*bp)[:0]
	payloadPool.Put(bp)
}
