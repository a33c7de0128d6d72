include module type of struct include Scdb_json.Json end
