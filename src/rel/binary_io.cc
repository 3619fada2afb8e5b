#include "rel/binary_io.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/little_endian.h"

namespace kbt {

namespace {

/// Bounds-checked little-endian reader over a byte view. Every failure names
/// the field being read, so corrupt checkpoints are diagnosable.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ >= bytes_.size(); }

  Status ReadU32(std::string_view field, uint32_t* out) {
    if (remaining() < 4) {
      return Status::DataLoss(std::string("truncated input reading ") +
                              std::string(field));
    }
    *out = LoadU32(bytes_.data() + pos_);
    pos_ += 4;
    return Status::OK();
  }

  Status ReadBytes(std::string_view field, size_t n, std::string_view* out) {
    if (remaining() < n) {
      return Status::DataLoss(std::string("truncated input reading ") +
                              std::string(field));
    }
    *out = bytes_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Collects the string dictionary of a blob in first-use order: schema
/// declaration names first, then relation values in row-major order.
class DictBuilder {
 public:
  uint32_t IndexOf(Symbol s) {
    auto [it, inserted] = index_.try_emplace(s, symbols_.size());
    if (inserted) symbols_.push_back(s);
    return static_cast<uint32_t>(it->second);
  }

  void CollectSchema(const Schema& schema) {
    for (const RelationDecl& d : schema.decls()) IndexOf(d.symbol);
  }

  void CollectRelations(const Database& db) {
    for (const Relation& r : db.relations()) {
      for (Value v : r.flat()) IndexOf(v);
    }
  }

  void Emit(std::string* out) const {
    AppendU32(out, static_cast<uint32_t>(symbols_.size()));
    for (Symbol s : symbols_) {
      const std::string& name = NameOf(s);
      AppendU32(out, static_cast<uint32_t>(name.size()));
      out->append(name);
    }
  }

 private:
  std::unordered_map<Symbol, size_t> index_;
  std::vector<Symbol> symbols_;
};

void EmitSchema(const Schema& schema, DictBuilder* dict, std::string* out) {
  AppendU32(out, static_cast<uint32_t>(schema.size()));
  for (const RelationDecl& d : schema.decls()) {
    AppendU32(out, dict->IndexOf(d.symbol));
    AppendU32(out, static_cast<uint32_t>(d.arity));
  }
}

void EmitRelations(const Database& db, DictBuilder* dict, std::string* out) {
  for (const Relation& r : db.relations()) {
    AppendU32(out, static_cast<uint32_t>(r.size()));
    for (Value v : r.flat()) AppendU32(out, dict->IndexOf(v));
  }
}

StatusOr<std::vector<Symbol>> ReadDictionary(Reader* reader) {
  uint32_t count = 0;
  KBT_RETURN_IF_ERROR(reader->ReadU32("dictionary count", &count));
  // Every entry takes at least its 4-byte length prefix, so a count the input
  // cannot possibly hold is rejected before any allocation.
  if (count > reader->remaining() / 4) {
    return Status::DataLoss("dictionary count exceeds input size");
  }
  std::vector<Symbol> symbols;
  symbols.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    KBT_RETURN_IF_ERROR(reader->ReadU32("dictionary entry length", &len));
    std::string_view name;
    KBT_RETURN_IF_ERROR(reader->ReadBytes("dictionary entry", len, &name));
    symbols.push_back(Names().Intern(name));
  }
  return symbols;
}

StatusOr<Schema> ReadSchema(Reader* reader, const std::vector<Symbol>& dict) {
  uint32_t count = 0;
  KBT_RETURN_IF_ERROR(reader->ReadU32("schema count", &count));
  if (count > reader->remaining() / 8) {
    return Status::DataLoss("schema count exceeds input size");
  }
  std::vector<RelationDecl> decls;
  decls.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_index = 0;
    uint32_t arity = 0;
    KBT_RETURN_IF_ERROR(reader->ReadU32("schema name index", &name_index));
    KBT_RETURN_IF_ERROR(reader->ReadU32("schema arity", &arity));
    if (name_index >= dict.size()) {
      return Status::DataLoss("schema name index out of dictionary range");
    }
    decls.push_back(RelationDecl{dict[name_index], static_cast<size_t>(arity)});
  }
  return Schema::FromDecls(std::move(decls));
}

StatusOr<Relation> ReadRelation(Reader* reader, const std::vector<Symbol>& dict,
                                size_t arity) {
  uint32_t rows = 0;
  KBT_RETURN_IF_ERROR(reader->ReadU32("relation row count", &rows));
  if (arity == 0) {
    // The empty tuple is the only inhabitant of a zero-ary relation.
    if (rows > 1) return Status::DataLoss("zero-ary relation with > 1 row");
  } else if (static_cast<uint64_t>(rows) * arity >
             static_cast<uint64_t>(reader->remaining()) / 4) {
    return Status::DataLoss("relation row count exceeds input size");
  }
  Relation::Builder builder(arity);
  builder.Reserve(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    if (arity == 0) {
      builder.Append(TupleView(nullptr, 0));
      continue;
    }
    Value* row = builder.AppendRow();
    for (size_t i = 0; i < arity; ++i) {
      uint32_t value_index = 0;
      KBT_RETURN_IF_ERROR(reader->ReadU32("tuple value index", &value_index));
      if (value_index >= dict.size()) {
        return Status::DataLoss("tuple value index out of dictionary range");
      }
      row[i] = dict[value_index];
    }
  }
  return builder.Build();
}

StatusOr<Database> ReadDatabaseBody(Reader* reader,
                                    const std::vector<Symbol>& dict,
                                    const Schema& schema) {
  std::vector<Relation> relations;
  relations.reserve(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    KBT_ASSIGN_OR_RETURN(Relation r,
                         ReadRelation(reader, dict, schema.decl(i).arity));
    relations.push_back(std::move(r));
  }
  return Database::Create(schema, std::move(relations));
}

}  // namespace

void AppendBinaryDatabase(const Database& db, std::string* out) {
  DictBuilder dict;
  dict.CollectSchema(db.schema());
  dict.CollectRelations(db);
  dict.Emit(out);
  EmitSchema(db.schema(), &dict, out);
  EmitRelations(db, &dict, out);
}

std::string SerializeDatabase(const Database& db) {
  std::string out;
  AppendBinaryDatabase(db, &out);
  return out;
}

StatusOr<Database> ParseBinaryDatabase(std::string_view bytes) {
  Reader reader(bytes);
  KBT_ASSIGN_OR_RETURN(std::vector<Symbol> dict, ReadDictionary(&reader));
  KBT_ASSIGN_OR_RETURN(Schema schema, ReadSchema(&reader, dict));
  KBT_ASSIGN_OR_RETURN(Database db, ReadDatabaseBody(&reader, dict, schema));
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes after database");
  }
  return db;
}

void AppendBinaryKnowledgebase(const Knowledgebase& kb, std::string* out) {
  AppendU32(out, static_cast<uint32_t>(kb.size()));
  DictBuilder dict;
  dict.CollectSchema(kb.schema());
  for (size_t i = 0; i < kb.size(); ++i) dict.CollectRelations(kb.World(i));
  dict.Emit(out);
  EmitSchema(kb.schema(), &dict, out);
  for (size_t i = 0; i < kb.size(); ++i) {
    EmitRelations(kb.World(i), &dict, out);
  }
}

std::string SerializeKnowledgebase(const Knowledgebase& kb) {
  std::string out;
  AppendBinaryKnowledgebase(kb, &out);
  return out;
}

StatusOr<Knowledgebase> ParseBinaryKnowledgebase(std::string_view bytes) {
  Reader reader(bytes);
  uint32_t members = 0;
  KBT_RETURN_IF_ERROR(reader.ReadU32("member count", &members));
  // Every member needs at least one row-count word per schema relation; with
  // an empty schema a member is zero bytes, so cap only by a sanity bound.
  if (members > (1u << 24)) {
    return Status::DataLoss("member count exceeds sanity bound");
  }
  KBT_ASSIGN_OR_RETURN(std::vector<Symbol> dict, ReadDictionary(&reader));
  KBT_ASSIGN_OR_RETURN(Schema schema, ReadSchema(&reader, dict));
  std::vector<Database> databases;
  databases.reserve(std::min<uint32_t>(members, 1024));
  for (uint32_t m = 0; m < members; ++m) {
    KBT_ASSIGN_OR_RETURN(Database db, ReadDatabaseBody(&reader, dict, schema));
    databases.push_back(std::move(db));
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes after knowledgebase");
  }
  if (databases.empty()) return Knowledgebase(std::move(schema));
  return Knowledgebase::FromDatabases(std::move(databases));
}

}  // namespace kbt
