package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/urbancivics/goflow/internal/fsys"
)

// Manifest is the log's side-channel metadata file: the durable
// election state a cluster node must persist before it votes or leads
// (a node that forgot its term after a restart could vote twice in one
// term, or lead at a term it already ceded). It lives next to the
// segments as node.manifest — CRC-framed like the records themselves,
// written atomically via temp-file + rename + directory fsync — rather
// than inside the record stream, so reading it never scans the log and
// writing it never perturbs LSN assignment.
type Manifest struct {
	// Term is the highest election term this node has observed.
	Term uint64 `json:"term"`
	// VotedFor is the candidate this node granted its vote in Term
	// ("" = none yet).
	VotedFor string `json:"votedFor,omitempty"`
	// Led records that this node has accepted writes as the leader of
	// Term. A node that led and was deposed may hold an unacknowledged
	// log tail the new leader never saw; the flag makes the next
	// restart bootstrap from a leader snapshot instead of trusting the
	// local log.
	Led bool `json:"led,omitempty"`
}

// manifestName is the manifest file name inside the log directory.
const manifestName = "node.manifest"

// SaveManifest durably writes m into the log directory: CRC line first
// so a torn write is detected, temp-file + rename so the previous
// manifest survives any crash, directory fsync so the rename itself is
// durable.
func SaveManifest(dir string, m Manifest) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wal: encode manifest: %w", err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%08x\n", crc32.Checksum(body, castagnoli))
	buf.Write(body)

	if err := fsys.WriteFileAtomic(filepath.Join(dir, manifestName), ".manifest-*.tmp", func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	}); err != nil {
		return fmt.Errorf("wal: save manifest: %w", err)
	}
	return nil
}

// LoadManifest reads the manifest from the log directory. The second
// return value is false when no manifest exists (a fresh node). A
// manifest whose checksum does not match is an error — election state
// must never be silently reset.
func LoadManifest(dir string) (Manifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("wal: read manifest: %w", err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return Manifest{}, false, fmt.Errorf("wal: manifest truncated")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(data[:nl]), "%08x", &want); err != nil {
		return Manifest{}, false, fmt.Errorf("wal: manifest checksum line: %w", err)
	}
	body := data[nl+1:]
	if got := crc32.Checksum(body, castagnoli); got != want {
		return Manifest{}, false, fmt.Errorf("wal: manifest checksum mismatch (%08x != %08x)", got, want)
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("wal: decode manifest: %w", err)
	}
	return m, true, nil
}
