package main

import (
	"fmt"
	"strings"

	"qbism/internal/lfm"
	core "qbism/internal/qbism"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
	"qbism/internal/volume"
)

// The staged replay answers a QuerySpec without the MedicalServer: the
// benchmark composes the same result out of the layers' exported
// functions — catalog statements through sdb, stored REGION and VOLUME
// bytes through lfm, decoding through rencode, set algebra through
// region, and the page-coalesced extraction and DATA_REGION marshaling
// of package qbism. It serves two purposes. It is the independent path
// the verification pass compares every served reply against, byte for
// byte; and, recorded as spans in a traced run, it is how server time is
// split by layer from the outside. What it does not reproduce — the
// executor driving the UDFs, values copied between operators, the
// response header — shows up as qbism.serve_unattributed_frac.

// The §3.4 metadata statement, as the MedicalServer issues it.
const metadataSQL = `
select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
       a.atlasId, p.name, p.patientId, rv.date
from   atlas a, rawVolume rv,
       warpedVolume wv, patient p
where  a.atlasId = wv.atlasId and
       wv.studyId = rv.studyId and
       rv.patientId = p.patientId and
       rv.studyId = ? and a.atlasName = ?`

// The §3.4 mixed data statement; sdb.parse_us times parsing it.
const mixedDataSQL = `
select extractVoxels(wv.data, intersection(ib.region, as.region))
from   warpedVolume wv, intensityBand ib, atlasStructure as, neuralStructure ns
where  wv.studyId = ? and
       ib.studyId = wv.studyId and ib.atlasId = wv.atlasId and
       ib.lo = ? and ib.hi = ? and ib.encoding = ? and
       as.atlasId = wv.atlasId and
       as.structureId = ns.structureId and
       ns.structureName = ?`

// The region-fetch statements of the replay: long-field handles only,
// the reads happen in the lfm stage.
const (
	volumeHandleSQL    = `select wv.data from warpedVolume wv where wv.studyId = ?`
	structureHandleSQL = `
select as.region from atlasStructure as, neuralStructure ns
where  as.structureId = ns.structureId and ns.structureName = ?`
	bandHandleSQL = `
select ib.region from intensityBand ib
where  ib.studyId = ? and ib.lo = ? and ib.hi = ? and ib.encoding = ?`
)

type replayer struct {
	sys *core.System
	// bandRepr caches which stored representation a band query resolves
	// to, read from the "band repr:" line of ExplainSpec.
	bandRepr map[[3]int]string
}

func newReplayer(sys *core.System) *replayer {
	return &replayer{sys: sys, bandRepr: make(map[[3]int]string)}
}

// querySingle runs a statement that must yield exactly one row.
func (rp *replayer) querySingle(sql string, args ...sdb.Value) ([]sdb.Value, error) {
	rows, err := rp.sys.DB.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var row []sdb.Value
	n := 0
	for rows.Next() {
		if n == 0 {
			row = rows.Row()
		}
		n++
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	if n != 1 {
		return nil, fmt.Errorf("replay: statement returned %d rows, want 1", n)
	}
	return row, nil
}

func (rp *replayer) handle(sql string, args ...sdb.Value) (lfm.Handle, error) {
	row, err := rp.querySingle(sql, args...)
	if err != nil {
		return 0, err
	}
	if row[0].T != sdb.TLong {
		return 0, fmt.Errorf("replay: expected a long-field handle, got %s", row[0].T)
	}
	return row[0].L, nil
}

// bandEncoding resolves the representation the server picks for a band
// query that names none.
func (rp *replayer) bandEncoding(spec core.QuerySpec) (string, error) {
	if spec.Encoding != "" {
		return spec.Encoding, nil
	}
	key := [3]int{spec.StudyID, spec.BandLo, spec.BandHi}
	if enc, ok := rp.bandRepr[key]; ok {
		return enc, nil
	}
	lines, err := rp.sys.ExplainSpec(spec, false)
	if err != nil {
		return "", err
	}
	const prefix = "band repr: "
	if len(lines) == 0 || !strings.HasPrefix(lines[0], prefix) {
		return "", fmt.Errorf("replay: ExplainSpec gave no band representation line for %s", spec.Label())
	}
	enc := strings.Fields(strings.TrimPrefix(lines[0], prefix))[0]
	rp.bandRepr[key] = enc
	return enc, nil
}

// replay computes spec's DATA_REGION blob stage by stage, recording one
// span per stage under parent.
func (rp *replayer) replay(rec *recorder, opID, parent int, spec core.QuerySpec) ([]byte, error) {
	sys := rp.sys
	stage := func(name string, fn func() error) error { return rec.timed(name, opID, parent, fn) }
	study := sdb.Int(int64(spec.StudyID))

	if err := stage("sdb.metadata_query", func() error {
		_, err := rp.querySingle(metadataSQL, study, sdb.Str(spec.Atlas))
		return err
	}); err != nil {
		return nil, err
	}

	var encoding string
	if spec.HasBand {
		var err error
		if encoding, err = rp.bandEncoding(spec); err != nil {
			return nil, err
		}
	}
	var volH, structH, bandH lfm.Handle
	if err := stage("sdb.data_query", func() (err error) {
		if volH, err = rp.handle(volumeHandleSQL, study); err != nil {
			return err
		}
		if spec.Structure != "" {
			if structH, err = rp.handle(structureHandleSQL, sdb.Str(spec.Structure)); err != nil {
				return err
			}
		}
		if spec.HasBand {
			bandH, err = rp.handle(bandHandleSQL, study,
				sdb.Int(int64(spec.BandLo)), sdb.Int(int64(spec.BandHi)), sdb.Str(encoding))
		}
		return err
	}); err != nil {
		return nil, err
	}

	read := func(h lfm.Handle) (data []byte, err error) {
		err = stage("lfm.read", func() error {
			data, err = sys.LFM.Read(h)
			return err
		})
		return data, err
	}
	decode := func(data []byte) (r *region.Region, err error) {
		err = stage("rencode.decode", func() error {
			r, err = rencode.Decode(data)
			return err
		})
		return r, err
	}

	var d *volume.DataRegion
	var r *region.Region
	switch {
	case spec.FullStudy:
		data, err := read(volH)
		if err != nil {
			return nil, err
		}
		d = &volume.DataRegion{Region: region.Full(sys.Curve), Values: data}
	case spec.Box != nil && !spec.HasBand && spec.Structure == "":
		b := spec.Box
		if err := stage("region.from_box", func() (err error) {
			r, err = region.FromBox(sys.Curve, region.Box{
				Min: sfc.Pt(b[0], b[1], b[2]), Max: sfc.Pt(b[3], b[4], b[5])})
			return err
		}); err != nil {
			return nil, err
		}
	case spec.Structure != "" && !spec.HasBand:
		data, err := read(structH)
		if err != nil {
			return nil, err
		}
		if r, err = decode(data); err != nil {
			return nil, err
		}
	case spec.HasBand && spec.Structure == "":
		data, err := read(bandH)
		if err != nil {
			return nil, err
		}
		if r, err = decode(data); err != nil {
			return nil, err
		}
	case spec.HasBand:
		bandData, err := read(bandH)
		if err != nil {
			return nil, err
		}
		// The band operand stays queryable when it is stored as a
		// k³-tree, exactly as the intersection() UDF keeps it.
		var band region.Queryable
		if m, ok := rencode.MethodOf(bandData); ok && m == rencode.K3Tree {
			err = stage("rencode.k3_parse", func() (err error) {
				band, err = rencode.ParseK3(bandData)
				return err
			})
		} else {
			band, err = decode(bandData)
		}
		if err != nil {
			return nil, err
		}
		structData, err := read(structH)
		if err != nil {
			return nil, err
		}
		sr, err := decode(structData)
		if err != nil {
			return nil, err
		}
		if err := stage("region.intersect", func() (err error) {
			r, err = region.IntersectQ(band, sr)
			return err
		}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("replay: spec selects nothing: %s", spec.Label())
	}

	if d == nil {
		if err := stage("qbism.extract_stored", func() (err error) {
			d, err = core.ExtractStoredOpts(sys.LFM, volH, r, core.ExtractOpts{GapPages: sys.Cfg.ReadGapPages})
			return err
		}); err != nil {
			return nil, err
		}
	}
	var blob []byte
	err := stage("qbism.marshal", func() (err error) {
		blob, err = core.MarshalDataRegion(d, sys.Cfg.Method)
		return err
	})
	return blob, err
}

// replayBand stages ConsistentBandRegion: fetch each study's stored
// band REGION, decode it, intersect them all.
func (rp *replayer) replayBand(rec *recorder, opID, parent int, studies []int, band [2]int, encoding string) (*region.Region, error) {
	stage := func(name string, fn func() error) error { return rec.timed(name, opID, parent, fn) }
	regions := make([]*region.Region, len(studies))
	for i, study := range studies {
		var h lfm.Handle
		if err := stage("sdb.data_query", func() (err error) {
			h, err = rp.handle(bandHandleSQL, sdb.Int(int64(study)),
				sdb.Int(int64(band[0])), sdb.Int(int64(band[1])), sdb.Str(encoding))
			return err
		}); err != nil {
			return nil, err
		}
		var data []byte
		if err := stage("lfm.read", func() (err error) {
			data, err = rp.sys.LFM.Read(h)
			return err
		}); err != nil {
			return nil, err
		}
		if err := stage("rencode.decode", func() (err error) {
			regions[i], err = rencode.Decode(data)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var out *region.Region
	err := stage("region.intersect_n", func() (err error) {
		out, err = region.IntersectN(regions...)
		return err
	})
	return out, err
}
