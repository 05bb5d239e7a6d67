package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"uniserver/internal/vfr"
)

// SnapshotFormatVersion identifies the on-disk snapshot encoding.
// Readers refuse any other version: the wire form mirrors internal
// simulator state, so a silent cross-version read would corrupt
// results instead of failing loudly. Bump it whenever serialized
// state changes shape or meaning. Version 2 moved the VRT telegraph
// state out of the weak cells into per-DIMM state bits; version 3
// encodes the characterization image (Snapshot) itself instead of a
// separate wire struct.
const SnapshotFormatVersion = 3

// Save serializes the snapshot in the versioned gob format
// LoadSnapshot inverts: the image's exported fields, nothing else.
// Only pre-deployment characterization snapshots are writable: the
// on-disk cache keys entries by characterization identity alone, and a
// mid-life image, one taken after mode entry or one with placed guests
// carries deployment state that identity does not describe (the cache
// spills the post-PreDeployment checkpoint and re-enters the mode
// after restore).
func (s *Snapshot) Save(w io.Writer) error {
	if s.WindowsRun > 0 {
		return fmt.Errorf("core: refusing to serialize a mid-life snapshot (%d windows run); only pre-deployment characterization snapshots persist", s.WindowsRun)
	}
	if s.Mode != vfr.ModeNominal {
		return errors.New("core: refusing to serialize a snapshot taken after mode entry; snapshot between PreDeployment and EnterMode")
	}
	if len(s.Hyp.VMs) > 0 {
		return errors.New("core: refusing to serialize a snapshot with placed guests")
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(SnapshotFormatVersion); err != nil {
		return fmt.Errorf("core: writing snapshot version: %w", err)
	}
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("core: writing snapshot image: %w", err)
	}
	return nil
}

// LoadSnapshot reads a snapshot written by Save, refusing mismatched
// format versions. The image decodes in place and is validated before
// it is returned: every extent and index a stamp would follow (DRAM
// domains, DIMMs and VRT state bits, health-log vectors, sensors and
// errors, hypervisor placements) must lie inside the image, so a
// corrupt file fails here by name instead of panicking in a later
// RestoreInto. Restores from a loaded image are bit-indistinguishable
// from restores of the original in-memory one (pinned by
// TestSnapshotDiskRoundTrip).
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	dec := gob.NewDecoder(r)
	var version int
	if err := dec.Decode(&version); err != nil {
		return nil, fmt.Errorf("core: reading snapshot version: %w", err)
	}
	if version != SnapshotFormatVersion {
		return nil, fmt.Errorf("core: snapshot format version %d does not match this build's %d; refusing to load",
			version, SnapshotFormatVersion)
	}
	s := &Snapshot{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("core: reading snapshot image: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("core: invalid snapshot image: %w", err)
	}
	s.coreNames = coreNamesFor(s.Opts.Part)
	return s, nil
}

// validate checks a decoded image part by part. Images compiled from
// a live ecosystem are valid by construction and never pass through
// here.
func (s *Snapshot) validate() error {
	if s.Opts.Part.Cores <= 0 || len(s.Chip.Cores) != s.Opts.Part.Cores {
		return fmt.Errorf("part has %d cores, chip has %d", s.Opts.Part.Cores, len(s.Chip.Cores))
	}
	if err := s.Mem.Validate(); err != nil {
		return err
	}
	if err := s.Health.Validate(); err != nil {
		return err
	}
	if err := s.Stress.Validate(); err != nil {
		return err
	}
	return s.Hyp.Validate(len(s.Mem.Domains))
}
