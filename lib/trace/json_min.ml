include Scdb_json.Json
