package runctl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
)

// Checkpoint file format. v2 frames the JSON payload behind a header
// line carrying an exact length and a CRC32, so truncation, torn
// writes and bit rot are detected instead of surfacing as JSON syntax
// noise (or worse, parsing successfully). A bare-JSON v1 file of
// earlier releases is a CorruptHeader error.
const (
	FileFormat = "scanatpg-checkpoint/v2"

	// formatPrefix is shared by every version; a file that starts with
	// it but names an unknown version is a version error, not garbage.
	formatPrefix = "scanatpg-checkpoint/"
)

// envelope is the JSON payload layout behind the framing header.
type envelope struct {
	Format   string                     `json:"format"`
	Sections map[string]json.RawMessage `json:"sections"`
}

// CorruptKind classifies how a checkpoint failed to decode.
type CorruptKind uint8

const (
	// CorruptHeader: the file matches no known checkpoint layout.
	CorruptHeader CorruptKind = iota
	// CorruptVersion: a checkpoint from an unknown format version.
	CorruptVersion
	// CorruptFraming: the payload length disagrees with the header —
	// a truncated or torn write, or trailing garbage.
	CorruptFraming
	// CorruptChecksum: the payload CRC32 does not match the header.
	CorruptChecksum
	// CorruptSection: the payload (or one section) is not valid JSON.
	CorruptSection
)

func (k CorruptKind) String() string {
	switch k {
	case CorruptHeader:
		return "bad header"
	case CorruptVersion:
		return "unknown version"
	case CorruptFraming:
		return "bad framing"
	case CorruptChecksum:
		return "checksum mismatch"
	case CorruptSection:
		return "bad payload"
	}
	return "corrupt"
}

// CorruptError reports a checkpoint that exists but cannot be trusted.
// Callers distinguish it from transient I/O errors with errors.As (or
// IsCorrupt): corruption triggers generation rollback or documented
// degradation, never a retry of the same bytes.
type CorruptError struct {
	Path   string // backing file ("" for in-memory stores)
	Kind   CorruptKind
	Detail string
}

func (e *CorruptError) Error() string {
	where := e.Path
	if where == "" {
		where = "checkpoint"
	} else {
		where = "checkpoint " + where
	}
	return fmt.Sprintf("runctl: %s corrupt (%s): %s", where, e.Kind, e.Detail)
}

// IsCorrupt reports whether err wraps a CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// encodeEnvelope frames sections as a v2 checkpoint: a single header
// line "scanatpg-checkpoint/v2 len=N crc=XXXXXXXX" followed by exactly
// N bytes of JSON payload.
func encodeEnvelope(sections map[string]json.RawMessage) ([]byte, error) {
	payload, err := json.MarshalIndent(envelope{Format: FileFormat, Sections: sections}, "", " ")
	if err != nil {
		return nil, fmt.Errorf("runctl: encode checkpoint: %w", err)
	}
	payload = append(payload, '\n')
	header := fmt.Sprintf("%s len=%d crc=%08x\n", FileFormat, len(payload), crc32.ChecksumIEEE(payload))
	return append([]byte(header), payload...), nil
}

// decodeEnvelope parses a v2 checkpoint file, verifying its framing
// and checksum. Decode failures are *CorruptError.
func decodeEnvelope(path string, data []byte) (map[string]json.RawMessage, error) {
	if !bytes.HasPrefix(data, []byte(formatPrefix)) {
		if len(data) > 0 && bytes.HasPrefix([]byte(formatPrefix), data) {
			// A prefix of the magic: the header itself was torn.
			return nil, &CorruptError{Path: path, Kind: CorruptFraming,
				Detail: "header line truncated"}
		}
		return nil, &CorruptError{Path: path, Kind: CorruptHeader,
			Detail: "not a scanatpg checkpoint"}
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, &CorruptError{Path: path, Kind: CorruptFraming,
			Detail: "header line truncated"}
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || !strings.HasPrefix(fields[1], "len=") || !strings.HasPrefix(fields[2], "crc=") {
		return nil, &CorruptError{Path: path, Kind: CorruptHeader,
			Detail: fmt.Sprintf("malformed header %q", string(data[:nl]))}
	}
	if fields[0] != FileFormat {
		return nil, &CorruptError{Path: path, Kind: CorruptVersion,
			Detail: fmt.Sprintf("format %q, want %q", fields[0], FileFormat)}
	}
	var wantLen int
	if _, err := fmt.Sscanf(fields[1], "len=%d", &wantLen); err != nil || wantLen < 0 {
		return nil, &CorruptError{Path: path, Kind: CorruptHeader,
			Detail: fmt.Sprintf("bad length field %q", fields[1])}
	}
	var wantCRC uint32
	if _, err := fmt.Sscanf(fields[2], "crc=%x", &wantCRC); err != nil {
		return nil, &CorruptError{Path: path, Kind: CorruptHeader,
			Detail: fmt.Sprintf("bad checksum field %q", fields[2])}
	}
	payload := data[nl+1:]
	if len(payload) != wantLen {
		verb := "truncated"
		if len(payload) > wantLen {
			verb = "trailing garbage"
		}
		return nil, &CorruptError{Path: path, Kind: CorruptFraming,
			Detail: fmt.Sprintf("%s payload: %d bytes, header framed %d", verb, len(payload), wantLen)}
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, &CorruptError{Path: path, Kind: CorruptChecksum,
			Detail: fmt.Sprintf("crc %08x, header says %08x", got, wantCRC)}
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, &CorruptError{Path: path, Kind: CorruptSection,
			Detail: fmt.Sprintf("payload passed checksum but is not JSON: %v", err)}
	}
	if env.Format != FileFormat {
		return nil, &CorruptError{Path: path, Kind: CorruptVersion,
			Detail: fmt.Sprintf("payload format %q, want %q", env.Format, FileFormat)}
	}
	if env.Sections == nil {
		env.Sections = make(map[string]json.RawMessage)
	}
	return env.Sections, nil
}
