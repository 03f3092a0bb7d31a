package medserver

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"qbism/internal/atlas"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/synth"
	"qbism/internal/volume"
	"qbism/internal/warp"
)

// The load pipeline. Loading the atlas and each study is split in two:
// a *prepare* that computes everything to be stored — for a study:
// synthesize, fit the landmarks, resample to atlas space, reorder onto
// the Hilbert curve, band, and encode every band — and a *commit*
// that writes it: catalog rows, LFM allocations, and the Server's own
// maps.
//
// Prepares read only the immutable parts of the Server (Cfg, Curve)
// and run on worker goroutines; commits run on the goroutine
// that called New, one at a time, atlas first and then in study order.
// Every handle number, device offset and row position is decided by
// the commit sequence alone, so the store holds the same
// bytes at the same places however many workers there are and however
// they were scheduled.

// loadJob prepares one unit of the load and returns its commit.
type loadJob func() (commit func() error, err error)

// load runs the whole pipeline: the atlas, then every study of this
// node's shard.
func (s *Server) load() error {
	jobs := []loadJob{s.prepareAtlas}
	for _, plan := range s.studyPlans() {
		jobs = append(jobs, func() (func() error, error) { return s.prepareStudy(plan) })
	}
	return runOrdered(runtime.GOMAXPROCS(0), jobs)
}

// runOrdered prepares jobs on the given number of worker goroutines and
// runs their commits on the calling goroutine in job order. Job i is
// handed out only once job i-workers has committed, so at most workers
// prepared-but-uncommitted results exist at a time. The first failure
// in job order — of a prepare or of a commit — is returned, after every
// worker has exited; jobs past it are never committed.
func runOrdered(workers int, jobs []loadJob) error {
	type prepared struct {
		commit func() error
		err    error
	}
	results := make([]chan prepared, len(jobs))
	for i := range results {
		results[i] = make(chan prepared, 1) // the one send never blocks
	}
	feed := make(chan int)
	workers = min(workers, len(jobs))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range feed {
				commit, err := jobs[i]()
				results[i] <- prepared{commit, err}
			}
		}()
	}
	var err error
	next := 0
	for i := range jobs {
		// Fewer than workers jobs are out, so a worker is idle and
		// these sends do not wait on a prepare.
		for ; next < len(jobs) && next < i+workers; next++ {
			feed <- next
		}
		r := <-results[i]
		if err = r.err; err != nil {
			break
		}
		if err = r.commit(); err != nil {
			break
		}
	}
	close(feed)
	wg.Wait()
	return err
}

// prepareAtlas builds the procedural atlas and encodes its structures.
func (s *Server) prepareAtlas() (func() error, error) {
	a, err := atlas.Build(s.Curve, s.Cfg.WithMeshes)
	if err != nil {
		return nil, err
	}
	regions := make([][]byte, len(a.Structures))
	for i, st := range a.Structures {
		if regions[i], err = rencode.Encode(rencode.K3Tree, st.Region); err != nil {
			return nil, err
		}
	}
	return func() error { return s.commitAtlas(a, regions) }, nil
}

// commitAtlas stores the built atlas relationally.
func (s *Server) commitAtlas(a *atlas.Atlas, regions [][]byte) error {
	s.Atlas = a
	side := 1 << s.Cfg.Bits
	if _, err := s.DB.Exec(fmt.Sprintf(
		`insert into atlas values (%d, 'Talairach', %d, 0.0, 0.0, 0.0, %g, %g, %g)`,
		s.AtlasID, side, a.VoxelMM[0], a.VoxelMM[1], a.VoxelMM[2])); err != nil {
		return err
	}
	systems := make(map[string]int)
	for i, st := range a.Structures {
		sysID, ok := systems[st.System]
		if !ok {
			sysID = len(systems) + 1
			systems[st.System] = sysID
			if _, err := s.DB.Exec(fmt.Sprintf(
				`insert into neuralSystem values (%d, '%s')`, sysID, st.System)); err != nil {
				return err
			}
		}
		if _, err := s.DB.Exec(fmt.Sprintf(
			`insert into neuralStructure values (%d, '%s', %d)`, st.ID, st.Name, sysID)); err != nil {
			return err
		}
		regionHandle, err := s.LFM.Allocate(regions[i])
		if err != nil {
			return err
		}
		surface := sdb.Null()
		if st.Mesh != nil {
			h, err := s.LFM.Allocate(st.Mesh.Marshal())
			if err != nil {
				return err
			}
			surface = sdb.Long(h)
		}
		if err := s.DB.InsertRow("atlasStructure", []sdb.Value{
			sdb.Int(int64(st.ID)), sdb.Int(int64(s.AtlasID)), sdb.Long(regionHandle), surface,
		}); err != nil {
			return err
		}
	}
	return nil
}

// studyPlan is one study of this node's shard: who it is and how to
// synthesize it.
type studyPlan struct {
	info      StudyInfo
	params    synth.Params
	name, sex string
	age       int
}

// Corpus enumerates the full corpus cfg describes — study and patient
// IDs and modalities, PET studies first — whatever cfg.OnlyStudies
// selects. A cluster routes by it before any node exists.
func Corpus(cfg Config) []StudyInfo {
	cfg = cfg.WithDefaults()
	out := make([]StudyInfo, cfg.NumPET+cfg.NumMRI)
	for i := range out {
		out[i] = StudyInfo{StudyID: i + 1, PatientID: i + 1, Modality: synth.PET}
		if i >= cfg.NumPET {
			out[i].Modality = synth.MRI
		}
	}
	return out
}

// studyPlans returns the studies of the corpus this node loads. Synthesis
// seeds are assigned by position in the full corpus, exactly as for an
// unsharded load.
func (s *Server) studyPlans() []studyPlan {
	side := 1 << s.Cfg.Bits
	names := []string{"Hughes", "Ramirez", "Okafor", "Lindqvist", "Tanaka", "Moreau", "Petrov", "Osei", "Kim", "Novak"}
	var only map[int]bool
	if s.Cfg.OnlyStudies != nil {
		only = make(map[int]bool, len(s.Cfg.OnlyStudies))
		for _, id := range s.Cfg.OnlyStudies {
			only[id] = true
		}
	}
	var plans []studyPlan
	for i, info := range Corpus(s.Cfg) {
		if only != nil && !only[info.StudyID] {
			// Not this node's shard: the ID/seed slot stays consumed so
			// loaded studies match an unsharded load byte-for-byte.
			continue
		}
		params := synth.Params{
			StudyID:   info.StudyID,
			PatientID: info.PatientID,
			Modality:  info.Modality,
			Seed:      s.Cfg.Seed + uint64(i)*7919,
			AtlasSide: side,
		}
		if s.Cfg.SmallStudies {
			g := synth.DefaultGrid(info.Modality, side)
			params.Grid = warp.Grid{NX: g.NX / 2, NY: g.NY / 2, NZ: g.NZ}
			if params.Grid.NZ < 2 {
				params.Grid.NZ = 2
			}
		}
		sex := "F"
		if i%2 == 1 {
			sex = "M"
		}
		plans = append(plans, studyPlan{
			info:   info,
			params: params,
			name:   names[i%len(names)],
			sex:    sex,
			age:    25 + int((s.Cfg.Seed+uint64(i)*13)%50),
		})
	}
	return plans
}

// preparedStudy is everything commitStudy stores for one study.
type preparedStudy struct {
	plan       studyPlan
	date       string
	grid       warp.Grid
	warpParams string
	volume     []byte // atlas-space samples in Hilbert order
	bands      []preparedBand
}

// preparedBand is one intensity band: its REGION and the k³-tree its
// long field stores.
type preparedBand struct {
	spec volume.BandSpec
	data []byte
}

// prepareStudy synthesizes, registers, warps, reorders, bands and
// encodes one study.
func (s *Server) prepareStudy(plan studyPlan) (func() error, error) {
	raw, scan, fitted, err := warpStudy(plan.params, 1<<s.Cfg.Bits)
	if err != nil {
		return nil, err
	}
	vol, err := volume.FromScanline(s.Curve, scan)
	if err != nil {
		return nil, err
	}
	wp, err := json.Marshal(fitted.M)
	if err != nil {
		return nil, err
	}
	// Banding: uniformly spaced intensity intervals (width 32 in the
	// paper) stored as REGIONs — the Intensity Band "index".
	specs, err := vol.UniformBands(s.Cfg.BandWidth)
	if err != nil {
		return nil, err
	}
	p := &preparedStudy{
		plan:       plan,
		date:       raw.Date,
		grid:       raw.Grid,
		warpParams: string(wp),
		volume:     vol.Bytes(),
		bands:      make([]preparedBand, len(specs)),
	}
	for i, b := range specs {
		data, err := rencode.Encode(rencode.K3Tree, b.Region)
		if err != nil {
			return nil, err
		}
		p.bands[i] = preparedBand{spec: b, data: data}
	}
	return func() error { return s.commitStudy(p) }, nil
}

// warpStudy synthesizes one study and warps it to a side^3 atlas-space
// volume in scanline order — the load-time processing of Section 2.2:
// "we generate and store the warped volume here at database load time
// ... since the computation is expensive". Only the samples the warp
// reads are synthesized: the study's geometry is drawn first, its
// landmarks fitted, and the phantom sampled on the fitted warp's
// footprint alone, so the volume is the one a fully sampled study
// resamples to.
func warpStudy(params synth.Params, side int) (*synth.RawStudy, []byte, warp.Affine, error) {
	raw, err := synth.Geometry(params)
	if err != nil {
		return nil, nil, warp.Affine{}, err
	}
	fitted, err := raw.Register()
	if err != nil {
		return nil, nil, warp.Affine{}, err
	}
	mask, err := warp.Footprint(raw.Grid, fitted, side)
	if err != nil {
		return nil, nil, warp.Affine{}, err
	}
	raw.Sample(mask)
	scan, err := warp.Resample(raw.Grid, raw.Data, fitted, side)
	if err != nil {
		return nil, nil, warp.Affine{}, err
	}
	return raw, scan, fitted, nil
}

// commitStudy stores one prepared study: patient, raw and warped
// volume rows, then every band in order — its one long field, and an
// intensityBand row over it per label of bandLabels (repr.go). The rawVolume row keeps the
// acquisition's date, modality and grid; its data column is NULL, since
// no statement reads patient-space samples.
func (s *Server) commitStudy(p *preparedStudy) error {
	studyID, patientID := p.plan.info.StudyID, p.plan.info.PatientID
	if _, err := s.DB.Exec(fmt.Sprintf(
		`insert into patient values (%d, '%s', %d, '%s')`, patientID, p.plan.name, p.plan.age, p.plan.sex)); err != nil {
		return err
	}
	if err := s.DB.InsertRow("rawVolume", []sdb.Value{
		sdb.Int(int64(studyID)), sdb.Int(int64(patientID)), sdb.Str(p.date),
		sdb.Str(p.plan.info.Modality.String()),
		sdb.Int(int64(p.grid.NX)), sdb.Int(int64(p.grid.NY)), sdb.Int(int64(p.grid.NZ)),
		sdb.Null(),
	}); err != nil {
		return err
	}
	volHandle, err := s.LFM.Allocate(p.volume)
	if err != nil {
		return err
	}
	if err := s.DB.InsertRow("warpedVolume", []sdb.Value{
		sdb.Int(int64(studyID)), sdb.Int(int64(s.AtlasID)), sdb.Str(p.warpParams), sdb.Long(volHandle),
	}); err != nil {
		return err
	}
	specs := make([]volume.BandSpec, len(p.bands))
	for i, b := range p.bands {
		specs[i] = b.spec
		h, err := s.LFM.Allocate(b.data)
		if err != nil {
			return err
		}
		for _, label := range bandLabels {
			if err := s.DB.InsertRow("intensityBand", []sdb.Value{
				sdb.Int(int64(studyID)), sdb.Int(int64(s.AtlasID)),
				sdb.Int(int64(b.spec.Lo)), sdb.Int(int64(b.spec.Hi)),
				sdb.Str(label), sdb.Long(h),
			}); err != nil {
				return err
			}
		}
	}
	s.BandRegions[studyID] = specs
	s.Studies = append(s.Studies, p.plan.info)
	return nil
}
