package wire

import "star/internal/replication"

// AppendBatch and DecodeBatch are the envelope codec in package
// replication, under the names benchmark/drill.go calls: wire's only use
// of replication, until a benchmark-only change repoints the drill.
func AppendBatch(b []byte, batch *replication.Batch) []byte {
	return replication.AppendBatch(b, batch)
}

// DecodeBatch is replication.DecodeBatch; see AppendBatch.
func DecodeBatch(b []byte) (*replication.Batch, error) { return replication.DecodeBatch(b) }
