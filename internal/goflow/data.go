package goflow

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/urbancivics/goflow/internal/docstore"
	"github.com/urbancivics/goflow/internal/geo"
	"github.com/urbancivics/goflow/internal/sensing"
	"github.com/urbancivics/goflow/internal/storage"
)

// Crowd-sensed data management: observations arriving through the
// broker (or bulk-loaded by simulations) are validated, anonymized,
// stamped and stored as documents; retrieval applies filter
// parameters and, for foreign apps, the owning app's open-data
// policy.

// ObservationsCollection is the docstore collection name.
const ObservationsCollection = "observations"

// DataManager stores and retrieves crowd-sensed observations. It
// talks to storage exclusively through the Engine seam, so the same
// code serves a bare in-memory store, a WAL-backed single node, or a
// sharded replicated cluster.
type DataManager struct {
	data     storage.Engine
	accounts *Accounts
	zones    *geo.ZoneGrid
}

// NewDataManager wires the storage layer over a plain document store.
// zones may be nil to skip zone derivation.
func NewDataManager(store *docstore.Store, accounts *Accounts, zones *geo.ZoneGrid) *DataManager {
	return NewDataManagerEngine(storage.NewLocal(store), accounts, zones)
}

// NewDataManagerEngine wires the storage layer over an arbitrary
// engine (a Local, a cluster Router, a replicated shard leader).
func NewDataManagerEngine(data storage.Engine, accounts *Accounts, zones *geo.ZoneGrid) *DataManager {
	for _, field := range []string{"deviceModel", "appId", "userId", "provider", "mode", "appVersion", "zone"} {
		data.EnsureIndex(ObservationsCollection, field)
	}
	return &DataManager{data: data, accounts: accounts, zones: zones}
}

// Ingest validates, anonymizes and stores one observation published
// by clientID for appID; it returns the stored document id.
func (dm *DataManager) Ingest(appID, clientID string, o *sensing.Observation, receivedAt time.Time) (string, error) {
	return dm.ingestAnon(appID, dm.accounts.Anonymize(clientID), o, receivedAt)
}

// ingestAnon is Ingest with the contributor already anonymized, for a
// caller that records the anonymous id elsewhere too.
func (dm *DataManager) ingestAnon(appID, anonID string, o *sensing.Observation, receivedAt time.Time) (string, error) {
	if o == nil {
		return "", errors.New("goflow: nil observation")
	}
	if err := o.Validate(); err != nil {
		return "", fmt.Errorf("ingest: %w", err)
	}
	id, err := dm.data.Insert(ObservationsCollection, dm.toDocAnon(appID, anonID, o, receivedAt))
	if err != nil {
		return "", fmt.Errorf("store observation: %w", err)
	}
	return id, nil
}

// ingestBatch validates and stores a run of observations from one
// contributor, already anonymized as anonID, through a single store
// operation; it returns the ids of the stored documents. On the first
// invalid observation the valid prefix is still stored and the error
// returned, mirroring Ingest called in a loop.
func (dm *DataManager) ingestBatch(appID, anonID string, observations []*sensing.Observation, receivedAt []time.Time) ([]string, error) {
	if len(observations) == 0 {
		return nil, nil
	}
	docs := make([]docstore.Doc, 0, len(observations))
	var buildErr error
	for i, o := range observations {
		if o == nil {
			buildErr = fmt.Errorf("ingest #%d: nil observation", i)
			break
		}
		if err := o.Validate(); err != nil {
			buildErr = fmt.Errorf("ingest #%d: %w", i, err)
			break
		}
		docs = append(docs, dm.toDocAnon(appID, anonID, o, receivedAt[i]))
	}
	ids, err := dm.data.InsertMany(ObservationsCollection, docs)
	if err != nil {
		return ids, fmt.Errorf("store observations: %w", err)
	}
	return ids, buildErr
}

// toDocAnon flattens an observation into a document. The contributor
// is stored under the anonymized id only (CNIL privacy policy), which
// the caller resolves once for the document and its analytics.
func (dm *DataManager) toDocAnon(appID, anonID string, o *sensing.Observation, receivedAt time.Time) docstore.Doc {
	doc := docstore.Doc{
		"appId":        appID,
		"userId":       anonID,
		"deviceModel":  o.DeviceModel,
		"appVersion":   o.AppVersion,
		"mode":         o.Mode.String(),
		"spl":          o.SPL,
		"activity":     o.Activity.String(),
		"activityConf": o.ActivityConfidence,
		"sensedAt":     o.SensedAt,
		"receivedAt":   receivedAt,
		"localized":    o.Localized(),
		"provider":     sensing.ProviderNone.String(),
	}
	if o.Loc != nil {
		doc["provider"] = o.Loc.Provider.String()
		doc["lat"] = o.Loc.Point.Lat
		doc["lon"] = o.Loc.Point.Lon
		doc["accuracyM"] = o.Loc.AccuracyM
		if dm.zones != nil {
			doc["zone"] = dm.zones.ZoneID(o.Loc.Point)
		}
	}
	return doc
}

// Query selects stored observations.
type Query struct {
	AppID       string     `json:"appId,omitempty"`
	DeviceModel string     `json:"deviceModel,omitempty"`
	UserID      string     `json:"userId,omitempty"` // anonymized id
	Provider    string     `json:"provider,omitempty"`
	Mode        string     `json:"mode,omitempty"`
	AppVersion  string     `json:"appVersion,omitempty"`
	Zone        string     `json:"zone,omitempty"`
	Localized   *bool      `json:"localized,omitempty"`
	From        *time.Time `json:"from,omitempty"`
	To          *time.Time `json:"to,omitempty"`
	MinSPL      *float64   `json:"minSpl,omitempty"`
	MaxSPL      *float64   `json:"maxSpl,omitempty"`
	Limit       int        `json:"limit,omitempty"`
	Skip        int        `json:"skip,omitempty"`
}

// toFilter compiles the query into a docstore filter.
func (q Query) toFilter() docstore.Doc {
	f := docstore.Doc{}
	if q.AppID != "" {
		f["appId"] = q.AppID
	}
	if q.DeviceModel != "" {
		f["deviceModel"] = q.DeviceModel
	}
	if q.UserID != "" {
		f["userId"] = q.UserID
	}
	if q.Provider != "" {
		f["provider"] = q.Provider
	}
	if q.Mode != "" {
		f["mode"] = q.Mode
	}
	if q.AppVersion != "" {
		f["appVersion"] = q.AppVersion
	}
	if q.Zone != "" {
		f["zone"] = q.Zone
	}
	if q.Localized != nil {
		f["localized"] = *q.Localized
	}
	timeCond := map[string]any{}
	if q.From != nil {
		timeCond["$gte"] = *q.From
	}
	if q.To != nil {
		timeCond["$lt"] = *q.To
	}
	if len(timeCond) > 0 {
		f["sensedAt"] = timeCond
	}
	splCond := map[string]any{}
	if q.MinSPL != nil {
		splCond["$gte"] = *q.MinSPL
	}
	if q.MaxSPL != nil {
		splCond["$lt"] = *q.MaxSPL
	}
	if len(splCond) > 0 {
		f["spl"] = splCond
	}
	return f
}

// Retrieve returns the observations matching q, sorted by sensing time,
// as rows: read-only views of the stored documents (docstore.Row), so a
// page costs what is done with it — encoded, rebuilt as observations —
// and not a map per document first. ctx bounds the scan: a query
// outliving its HTTP handler (or the admission timeout) is cancelled
// instead of holding the collection lock to completion.
func (dm *DataManager) Retrieve(ctx context.Context, q Query) ([]docstore.Row, error) {
	rows, err := dm.data.FindRows(ctx, ObservationsCollection, q.toFilter(), docstore.FindOptions{
		SortField: "sensedAt",
		Skip:      q.Skip,
		Limit:     q.Limit,
	})
	if err != nil {
		return nil, fmt.Errorf("retrieve: %w", err)
	}
	return rows, nil
}

// ErrCursorUnsupported reports a storage engine without a stable
// global scan order (the cluster Router: shards scan independently).
// The HTTP layer maps it to 501 — clients fall back to offset pages.
var ErrCursorUnsupported = errors.New("goflow: cursor pagination not supported by this storage engine")

// RetrieveAfter returns up to q.Limit observations strictly after the
// document afterID ("" = from the beginning) together with the last
// returned document's id — the anchor for the next cursor. Cursor
// reads keep the engine's stable scan order (insertion order), not the
// sensedAt sort of offset reads: the no-gap/no-duplicate resume
// guarantee needs a total order that new inserts only append to, and
// arrival order is exactly that.
func (dm *DataManager) RetrieveAfter(ctx context.Context, afterID string, q Query) ([]docstore.Row, string, error) {
	sc, ok := dm.data.(storage.CursorScanner)
	if !ok {
		return nil, "", ErrCursorUnsupported
	}
	rows, err := sc.ScanRowsAfter(ctx, ObservationsCollection, afterID, q.toFilter(), q.Limit)
	if err != nil {
		return nil, "", fmt.Errorf("retrieve after: %w", err)
	}
	lastID := ""
	if len(rows) > 0 {
		lastID, _ = rows[len(rows)-1].Value(docstore.IDField).(string)
	}
	return rows, lastID, nil
}

// Count returns the number of observations matching q.
func (dm *DataManager) Count(ctx context.Context, q Query) (int, error) {
	return dm.data.CountContext(ctx, ObservationsCollection, q.toFilter())
}

// Visible returns which fields of ownerApp's observations requestingApp
// may see, as the predicate docstore.Row.AppendJSON takes: nil — every
// field — for the owner itself, the owner's open-data policy for
// anyone else. The projection happens where a row is written out;
// retrieval is the same for both.
func (dm *DataManager) Visible(ownerApp, requestingApp string) (keep func(field string) bool, err error) {
	if requestingApp == ownerApp {
		return nil, nil
	}
	app, err := dm.accounts.App(ownerApp)
	if err != nil {
		return nil, err
	}
	return app.Policy.Shares, nil
}

// DeleteUserData erases a contributor's stored observations (right to
// erasure); it returns the number of documents removed.
func (dm *DataManager) DeleteUserData(anonID string) (int, error) {
	return dm.data.DeleteMany(ObservationsCollection, docstore.Doc{"userId": anonID})
}

// observationFields are the fields ObservationFromRow reads; the
// constants are their positions in the list.
var observationFields = docstore.NewFields(
	"userId", "deviceModel", "appVersion", "mode", "spl", "activity", "activityConf",
	"sensedAt", "receivedAt", "localized", "lat", "lon", "accuracyM", "provider")

const (
	ofUserID = iota
	ofDeviceModel
	ofAppVersion
	ofMode
	ofSPL
	ofActivity
	ofActivityConf
	ofSensedAt
	ofReceivedAt
	ofLocalized
	ofLat
	ofLon
	ofAccuracyM
	ofProvider
)

// Errors of ObservationFromRow and FillObservation.
var (
	errNoUserID      = errors.New("goflow: document without userId")
	errNoDeviceModel = errors.New("goflow: document without deviceModel")
	errNoSPL         = errors.New("goflow: document without spl")
	errNoSensedAt    = errors.New("goflow: document without sensedAt")
)

// ObservationFromRow rebuilds a sensing.Observation from its stored
// form (the inverse of the ingest flattening). Server-side analyses —
// background jobs, the SoundCity exposure dashboards — use it to run
// the sensing-layer algorithms on stored data.
func ObservationFromRow(r docstore.Row) (*sensing.Observation, error) {
	o := &sensing.Observation{}
	if err := FillObservation(o, r); err != nil {
		return nil, err
	}
	return o, nil
}

// FillObservation is ObservationFromRow into an Observation the caller
// holds, so a fold over a page of rows rebuilds each in the same one:
// o is overwritten, and o.Loc, when set, is reused for a localized
// row. Where the fields sit in a row is looked up once per shape
// (docstore.Fields), not per row, and each is read typed, as the row
// keeps it: nothing is allocated for a well-formed row.
func FillObservation(o *sensing.Observation, r docstore.Row) error {
	d := observationFields.In(r)
	loc := o.Loc
	*o = sensing.Observation{}
	var ok bool
	if o.UserID, ok = d.String(ofUserID); !ok {
		return errNoUserID
	}
	if o.DeviceModel, ok = d.String(ofDeviceModel); !ok {
		return errNoDeviceModel
	}
	o.AppVersion, _ = d.String(ofAppVersion)
	modeStr, _ := d.String(ofMode)
	mode, err := sensing.ParseMode(modeStr)
	if err != nil {
		return err
	}
	o.Mode = mode
	if o.SPL, ok = d.Float(ofSPL); !ok {
		return errNoSPL
	}
	actStr, _ := d.String(ofActivity)
	if act, err := sensing.ParseActivity(actStr); err == nil {
		o.Activity = act
	} else {
		o.Activity = sensing.ActivityUnknown
	}
	if conf, ok := d.Float(ofActivityConf); ok {
		o.ActivityConfidence = conf
	}
	if o.SensedAt, ok = d.Time(ofSensedAt); !ok {
		return errNoSensedAt
	}
	o.ReceivedAt, _ = d.Time(ofReceivedAt)
	if localized, _ := d.Bool(ofLocalized); localized {
		lat, latOK := d.Float(ofLat)
		lon, lonOK := d.Float(ofLon)
		acc, accOK := d.Float(ofAccuracyM)
		providerStr, _ := d.String(ofProvider)
		provider, err := sensing.ParseProvider(providerStr)
		if latOK && lonOK && accOK && err == nil {
			if loc == nil {
				loc = &sensing.Location{}
			}
			*loc = sensing.Location{Point: geo.Point{Lat: lat, Lon: lon}, AccuracyM: acc, Provider: provider}
			o.Loc = loc
		}
	}
	if err := o.Validate(); err != nil {
		return fmt.Errorf("rebuild observation: %w", err)
	}
	return nil
}
