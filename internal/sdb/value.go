// Package sdb is a small extensible relational DBMS standing in for the
// Starburst engine the QBISM paper builds on [27]. It provides exactly
// the extension hooks the paper relies on:
//
//   - relational tables with a SQL subset (CREATE TABLE, INSERT, SELECT
//     with multi-table joins, DELETE, UPDATE),
//   - a LONG column type holding handles into a Long Field Manager
//     (package lfm), and
//   - user-defined SQL functions embedded in query evaluation, which is
//     how the spatial operators (intersection, extractVoxels, ...) run
//     inside the database.
//
// The SQL dialect is case-insensitive for keywords and identifiers and
// deliberately does not reserve AS, so the paper's §3.4 queries — which
// use "as" as a table alias — parse verbatim.
package sdb

import (
	"fmt"
	"strconv"

	"qbism/internal/lfm"
)

// Type enumerates SQL value types.
type Type int

const (
	// TNull is the type of the NULL literal.
	TNull Type = iota
	// TInt is a 64-bit signed integer.
	TInt
	// TFloat is a 64-bit float.
	TFloat
	// TString is a character string.
	TString
	// TBool is a boolean.
	TBool
	// TLong is a handle to a long field stored in the LFM.
	TLong
	// TBytes is an in-memory byte string: what a user-defined function
	// returns for the caller to keep (a DATA_REGION from extractVoxels(),
	// say), or an Object where it leaves its call chain.
	TBytes
	// TObject is an Object one user-defined function returns for
	// another to take as it is: a REGION kept parsed between
	// intersection() and extractVoxels(), with no encoding in between.
	// Only a call's argument ever sees one. Anywhere else — an output
	// row, a predicate, a key — it stands as the BYTES its Encode
	// returns.
	TObject
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	case TBool:
		return "BOOL"
	case TLong:
		return "LONG"
	case TBytes:
		return "BYTES"
	case TObject:
		return "OBJECT"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a dynamically typed SQL value.
type Value struct {
	T Type
	I int64
	F float64
	S string
	B bool
	L lfm.Handle
	Y []byte
	O Object
}

// Object is the in-memory form a TObject value carries. sdb never
// looks inside one; it only asks it for its encoding.
type Object interface {
	// Encode returns the BYTES the value stands as outside the call
	// chain that made it.
	Encode() ([]byte, error)
}

// Constructors.

// Null returns the NULL value.
func Null() Value { return Value{T: TNull} }

// Int returns an integer value.
func Int(v int64) Value { return Value{T: TInt, I: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{T: TFloat, F: v} }

// Str returns a string value.
func Str(s string) Value { return Value{T: TString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{T: TBool, B: b} }

// Long returns a long-field handle value.
func Long(h lfm.Handle) Value { return Value{T: TLong, L: h} }

// Bytes returns an in-memory blob value.
func Bytes(b []byte) Value { return Value{T: TBytes, Y: b} }

// Obj returns a value carrying o for the next call to take as it is.
func Obj(o Object) Value { return Value{T: TObject, O: o} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.T == TNull }

// String renders the value for result display.
func (v Value) String() string {
	switch v.T {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return v.S
	case TBool:
		if v.B {
			return "true"
		}
		return "false"
	case TLong:
		return fmt.Sprintf("long:%d", uint64(v.L))
	case TBytes:
		return fmt.Sprintf("bytes[%d]", len(v.Y))
	case TObject:
		return "object"
	default:
		return "?"
	}
}

// numeric returns the value as float64 if it is numeric.
func (v Value) numeric() (float64, bool) {
	switch v.T {
	case TInt:
		return float64(v.I), true
	case TFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// Equal compares two values with int/float coercion. Comparisons with
// NULL are never equal. Bytes compare by content, longs by handle.
func (v Value) Equal(o Value) bool {
	if v.T == TNull || o.T == TNull {
		return false
	}
	if a, ok := v.numeric(); ok {
		if b, ok := o.numeric(); ok {
			return a == b
		}
		return false
	}
	if v.T != o.T {
		return false
	}
	switch v.T {
	case TString:
		return v.S == o.S
	case TBool:
		return v.B == o.B
	case TLong:
		return v.L == o.L
	case TBytes:
		if len(v.Y) != len(o.Y) {
			return false
		}
		for i := range v.Y {
			if v.Y[i] != o.Y[i] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Less orders two values of comparable types (numeric or string).
func (v Value) Less(o Value) (bool, error) {
	if a, aok := v.numeric(); aok {
		if b, bok := o.numeric(); bok {
			return a < b, nil
		}
	}
	if v.T == TString && o.T == TString {
		return v.S < o.S, nil
	}
	return false, fmt.Errorf("sdb: cannot order %s and %s", v.T, o.T)
}

// coerceTo converts v for storage in a column of type t, applying the
// usual int<->float widening. NULL is storable in any column.
func (v Value) coerceTo(t Type) (Value, error) {
	if v.T == TNull || v.T == t {
		return v, nil
	}
	switch {
	case t == TFloat && v.T == TInt:
		return Float(float64(v.I)), nil
	case t == TInt && v.T == TFloat && v.F == float64(int64(v.F)):
		return Int(int64(v.F)), nil
	case t == TLong && v.T == TInt && v.I >= 0:
		return Long(lfm.Handle(v.I)), nil
	}
	return Value{}, fmt.Errorf("sdb: cannot store %s value in %s column", v.T, t)
}
