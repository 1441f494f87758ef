// Package mddm is an implementation of the extended multidimensional data
// model and algebra of Pedersen & Jensen, "Multidimensional Data Modeling
// for Complex Data" (ICDE 1999).
//
// The model supports the paper's nine requirements for complex OLAP data:
// explicit, multiple and non-strict hierarchies in dimensions; symmetric
// treatment of dimensions and measures; correct aggregation guarded by
// summarizability; many-to-many fact–dimension relationships; built-in
// valid and transaction time; probabilities on data; and mixed
// granularities. The algebra is closed and at least as powerful as
// relational algebra with aggregation.
//
// # Quick start
//
//	diag := mddm.MustDimensionType("Diagnosis", mddm.Constant, mddm.KindString,
//	    "Low-level", "Family", "Group")
//	schema := mddm.MustSchema("Patient", diag)
//	mo := mddm.NewMO(schema)
//	_ = mo.Dimension("Diagnosis").AddValue("Group", "E1")
//	_ = mo.Relate("Diagnosis", "patient-1", "E1")
//
//	res, _ := mddm.Aggregate(mo, mddm.AggSpec{
//	    ResultDim: "Count",
//	    Func:      mddm.MustAggFunc("SETCOUNT"),
//	    GroupBy:   map[string]string{"Diagnosis": "Group"},
//	}, mddm.CurrentContext(mddm.MustDate("01/01/1999")))
//
// The sub-packages are re-exported here so downstream users need only this
// import; examples/ and cmd/ show larger end-to-end uses, and the paper's
// clinical case study ships in ready-to-run form (PatientMO, Generate).
package mddm

import (
	"mddm/internal/agg"
	"mddm/internal/algebra"
	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/lint"
	"mddm/internal/load"
	"mddm/internal/query"
	"mddm/internal/serialize"
	"mddm/internal/serve"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// --- Time (package temporal) ----------------------------------------------

// Chronon is a day-granule time value; NOW is the growing current time.
type Chronon = temporal.Chronon

// Interval is a closed interval of chronons.
type Interval = temporal.Interval

// Element is a coalesced temporal element (set of chronons).
type Element = temporal.Element

// BitemporalElement pairs valid time with transaction time.
type BitemporalElement = temporal.Bitemporal

// Now is the special continuously growing chronon.
const Now = temporal.Now

// Time construction helpers.
var (
	ParseDate     = temporal.ParseDate
	MustDate      = temporal.MustDate
	MustInterval  = temporal.MustInterval
	MustElement   = temporal.MustElement
	Span          = temporal.Span
	NewElement    = temporal.NewElement
	NewInterval   = temporal.NewInterval
	AlwaysElement = temporal.AlwaysElement
	FromDate      = temporal.FromDate
)

// --- Dimensions (package dimension) ----------------------------------------

// AggType classifies what aggregate functions data admits (c ⊑ φ ⊑ Σ).
type AggType = dimension.AggType

// Aggregation types.
const (
	Constant = dimension.Constant
	Average  = dimension.Average
	Sum      = dimension.Sum
)

// ValueKind is the numeric interpretation of a category's values.
type ValueKind = dimension.ValueKind

// Value kinds.
const (
	KindString = dimension.KindString
	KindInt    = dimension.KindInt
	KindFloat  = dimension.KindFloat
	KindDate   = dimension.KindDate
)

// DimensionType is a lattice of category types with ⊤ and ⊥.
type DimensionType = dimension.DimensionType

// Dimension is a dimension instance: categories of values under an
// annotated partial order, with representations.
type Dimension = dimension.Dimension

// Representation is a bijective, temporally varying alternate key for a
// category's values.
type Representation = dimension.Representation

// Annot carries the bitemporal element and probability of a statement.
type Annot = dimension.Annot

// Context parameterizes temporal and probabilistic evaluation.
type Context = dimension.Context

// TopName and TopValue are the reserved ⊤ category and value.
const (
	TopName  = dimension.TopName
	TopValue = dimension.TopValue
)

// Dimension construction helpers.
var (
	NewDimensionType  = dimension.NewDimensionType
	MustDimensionType = dimension.MustDimensionType
	NewDimension      = dimension.New
	Always            = dimension.Always
	ValidDuring       = dimension.ValidDuring
	CurrentContext    = dimension.CurrentContext
)

// --- The model (package core) ----------------------------------------------

// Schema is an n-dimensional fact schema.
type Schema = core.Schema

// MO is a multidimensional object (S, F, D, R).
type MO = core.MO

// Family is an MO family with shared subdimensions.
type Family = core.Family

// TemporalKind classifies an MO as snapshot, valid-time, transaction-time,
// or bitemporal.
type TemporalKind = core.TemporalKind

// Temporal kinds.
const (
	Snapshot        = core.Snapshot
	ValidTime       = core.ValidTime
	TransactionTime = core.TransactionTime
	Bitemporal      = core.Bitemporal
)

// Model construction helpers.
var (
	NewSchema  = core.NewSchema
	MustSchema = core.MustSchema
	NewMO      = core.NewMO
	NewFamily  = core.NewFamily
)

// --- Aggregation (package agg) ----------------------------------------------

// AggFunc is an aggregate function of the paper's function family.
type AggFunc = agg.Func

// SummarizabilityReport explains whether an aggregation is summarizable.
type SummarizabilityReport = agg.Report

// Aggregate-function helpers.
var (
	AggLookup         = agg.Lookup
	MustAggFunc       = agg.MustLookup
	RegisterAggFunc   = agg.Register
	CheckSummarizable = agg.CheckSummarizable
)

// --- The algebra (package algebra) -------------------------------------------

// Predicate selects facts.
type Predicate = algebra.Predicate

// CmpOp is a comparison operator for numeric predicates.
type CmpOp = algebra.CmpOp

// Comparison operators.
const (
	EQ = algebra.EQ
	NE = algebra.NE
	LT = algebra.LT
	LE = algebra.LE
	GT = algebra.GT
	GE = algebra.GE
)

// JoinPred decides whether two facts join.
type JoinPred = algebra.JoinPred

// AggSpec parameterizes aggregate formation.
type AggSpec = algebra.AggSpec

// AggResult is an aggregate formation outcome.
type AggResult = algebra.AggResult

// Range buckets result values (Figure 3's "0-1" and ">1").
type Range = algebra.Range

// Row is one SQL-style aggregation row.
type Row = algebra.Row

// StarJoinFilter is one leg of a star-join.
type StarJoinFilter = algebra.StarJoinFilter

// The fundamental and derived operators of §4.
var (
	Select               = algebra.Select
	Project              = algebra.Project
	Rename               = algebra.Rename
	Union                = algebra.Union
	Difference           = algebra.Difference
	Join                 = algebra.Join
	Aggregate            = algebra.Aggregate
	RollUp               = algebra.RollUp
	DrillDown            = algebra.DrillDown
	SQLAggregate         = algebra.SQLAggregate
	ValueJoin            = algebra.ValueJoin
	DuplicateRemoval     = algebra.DuplicateRemoval
	StarJoin             = algebra.StarJoin
	ValidTimeslice       = algebra.ValidTimeslice
	TransactionTimeslice = algebra.TransactionTimeslice
	ProbThreshold        = algebra.ProbThreshold

	// Predicate combinators.
	TruePred         = algebra.Predicate(algebra.TruePred)
	Characterized    = algebra.Characterized
	CharacterizedRep = algebra.CharacterizedRep
	NumericCmp       = algebra.NumericCmp
	PredAnd          = algebra.And
	PredOr           = algebra.Or
	PredNot          = algebra.Not

	// Join predicates.
	EqJoin    = algebra.EqJoin
	NeqJoin   = algebra.NeqJoin
	CrossJoin = algebra.CrossJoin
)

// --- Storage engine (package storage) ----------------------------------------

// Engine is a bitmap-indexed read snapshot of an MO.
type Engine = storage.Engine

// PreAggCache is a summarizability-guarded pre-aggregate cache.
type PreAggCache = storage.Cache

// Bitmap is an uncompressed fact bitmap.
type Bitmap = storage.Bitmap

// Storage helpers.
var (
	NewEngine      = storage.NewEngine
	NewPreAggCache = storage.NewCache
)

// Pre-aggregate kinds.
const (
	PreAggCount = storage.KindCount
	PreAggSum   = storage.KindSum
)

// --- Query language (package query) -------------------------------------------

// QueryCatalog names the MOs a query may address.
type QueryCatalog = query.Catalog

// QueryResult is a query outcome.
type QueryResult = query.Result

// Query helpers.
var (
	ExecQuery         = query.Exec
	ExecQueryContext  = query.ExecContext
	ParseQuery        = query.Parse
	RenderQueryResult = query.RenderResult
)

// --- Serving (package serve) ---------------------------------------------------

// ServeCatalog is a concurrency-safe copy-on-write MO registry.
type ServeCatalog = serve.Catalog

// ServeServer executes queries through one pipeline (ServeQuery in front
// of Query) under resource limits, with panic isolation and a
// single-flight engine cache.
type ServeServer = serve.Server

// ServeLimits bounds a query's deadline, result size, and fact scans.
type ServeLimits = serve.Limits

// Serving helpers and typed error sentinels.
var (
	NewServeCatalog      = serve.NewCatalog
	NewServeServer       = serve.NewServer
	ErrQueryCanceled     = serve.ErrCanceled
	ErrResourceExhausted = serve.ErrResourceExhausted
	ErrServeInternal     = serve.ErrInternal
)

// --- The paper's case study (package casestudy) ---------------------------------

// CaseStudyOptions controls the case-study builders.
type CaseStudyOptions = casestudy.Options

// GenConfig parameterizes the synthetic clinical data generator.
type GenConfig = casestudy.GenConfig

// Case-study helpers: Table 1 data, the Example 8 "Patient" MO, and the
// scalable synthetic generator.
var (
	PatientMO         = casestudy.BuildPatientMO
	MustPatientMO     = casestudy.MustPatientMO
	PatientSchema     = casestudy.PatientSchema
	CaseStudyDefaults = casestudy.DefaultOptions
	Generate          = casestudy.Generate
	MustGenerate      = casestudy.MustGenerate
	DefaultGen        = casestudy.DefaultGen
	RenderTable1      = casestudy.RenderTable1
	RenderFigure1     = casestudy.RenderFigure1
)

// --- Persistence (package serialize) ------------------------------------------

// MO persistence and result export.
var (
	EncodeMO       = serialize.Encode
	DecodeMO       = serialize.Decode
	WriteResultCSV = serialize.WriteResultCSV
	ReadRowsCSV    = serialize.ReadRowsCSV
)

// CubePlan is a per-dimension materialization plan: which categories are
// safely derivable from lower materializations and which must be computed
// from base data.
type CubePlan = storage.CubePlan

// CrossCell is one cell of a two-dimensional cross tabulation computed by
// the engine's bitmap indexes.
type CrossCell = storage.CrossCell

// DrillAcrossRow is one aligned row of a drill-across over a shared
// dimension.
type DrillAcrossRow = algebra.DrillAcrossRow

// DrillAcross combines two MOs of a family through a shared dimension.
var DrillAcross = algebra.DrillAcross

// TimePoint is one instant of a temporal series.
type TimePoint = algebra.TimePoint

// Temporal series helpers.
var (
	CountOverTime = algebra.CountOverTime
	YearlyCounts  = algebra.YearlyCounts
)

// --- CSV loading (package load) -------------------------------------------------

// LoadDimensionSpec describes one dimension hierarchy CSV to load.
type LoadDimensionSpec = load.DimensionSpec

// LoadFactSpec describes a fact-table CSV to load.
type LoadFactSpec = load.FactSpec

// CSV star-schema loaders.
var (
	LoadDimension = load.Dimension
	LoadFacts     = load.Facts
)

// Interval-scoped characterization predicates.
var (
	CharacterizedDuring     = algebra.CharacterizedDuring
	CharacterizedThroughout = algebra.CharacterizedThroughout
)

// --- Linter (package lint) --------------------------------------------------------

// LintFinding is one modeling-smell finding.
type LintFinding = lint.Finding

// Lint severities.
const (
	LintInfo = lint.Info
	LintWarn = lint.Warn
)

// Lint inspects an MO for modeling smells (non-covering rollups, empty
// categories, unreachable values) and pre-aggregation blockers (non-strict
// mappings).
var Lint = lint.Check
