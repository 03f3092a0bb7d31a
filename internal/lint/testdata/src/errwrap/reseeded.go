// Re-seeded from commit df9271e: the three severed error chains that
// the next commit, 6aaaa54, fixed to %w when errwrap first ran over the
// tree (internal/qbism/query.go, medserver.go and system.go). Each
// function is the parent's code cut to the Errorf and what it needs.
// go vet passes all three, and the tests of the day passed with them.
package qbism

import (
	"encoding/json"
	"fmt"
)

// QueryMeta stands for the reply's JSON meta header.
type QueryMeta struct{ Voxels int }

// decodeFrame stands for the CRC frame check, whose errors were already
// wrapped.
func decodeFrame(frame []byte) (header, blob []byte, err error) { return frame, nil, nil }

// splitResponse is internal/qbism/query.go's: a reply whose header does
// not parse lost its typed cause.
func splitResponse(resp []byte) (*QueryMeta, []byte, error) {
	header, blob, err := decodeFrame(resp)
	if err != nil {
		return nil, nil, fmt.Errorf("qbism: response: %w", err)
	}
	var meta QueryMeta
	if err := json.Unmarshal(header, &meta); err != nil {
		return nil, nil, fmt.Errorf("qbism: bad response header: %v", err) // want "formatted with %v loses the error chain"
	}
	return &meta, blob, nil
}

// QuerySpec stands for the request's query.
type QuerySpec struct{ StudyID int }

// handleMedicalQuery is the medicalQuery handler internal/qbism/
// medserver.go registered on the link.
func handleMedicalQuery(request []byte) ([]byte, error) {
	specJSON, _, err := decodeFrame(request)
	if err != nil {
		return nil, fmt.Errorf("qbism: request: %w", err)
	}
	var spec QuerySpec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return nil, fmt.Errorf("qbism: bad query spec: %v", err) // want "formatted with %v loses the error chain"
	}
	return specJSON, nil
}

// DB stands for sdb.DB.
type DB struct{}

func (db *DB) Exec(stmt string) (int, error) { return 0, nil }

// createSchema is internal/qbism/system.go's.
func createSchema(db *DB, ddl []string) error {
	for _, stmt := range ddl {
		if _, err := db.Exec(stmt); err != nil {
			return fmt.Errorf("qbism: schema: %v", err) // want "formatted with %v loses the error chain"
		}
	}
	return nil
}
