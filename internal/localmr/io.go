package localmr

import (
	"bufio"
	"fmt"
	"io"
)

// WriteOutput writes pairs as tab-separated "key<TAB>value" lines —
// the on-disk format of Hadoop's TextOutputFormat.
func WriteOutput(w io.Writer, pairs []KV) error {
	bw := bufio.NewWriter(w)
	for _, kv := range pairs {
		if _, err := fmt.Fprintf(bw, "%s\t%s\n", kv.Key, kv.Value); err != nil {
			return fmt.Errorf("localmr: writing output: %w", err)
		}
	}
	return bw.Flush()
}
