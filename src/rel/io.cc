#include "rel/io.h"

#include <cctype>
#include <vector>

namespace kbt {

namespace {

class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at position " + std::to_string(pos_));
  }

  StatusOr<std::string> Ident() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '\'')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected identifier");
    return std::string(text_.substr(start, pos_ - start));
  }

  StatusOr<size_t> Number() {
    SkipSpace();
    size_t start = pos_;
    size_t value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      value = value * 10 + static_cast<size_t>(text_[pos_] - '0');
      // Arities beyond this bound are certainly malformed input; rejecting
      // here keeps hostile digit runs from overflowing (std::stoul would
      // throw out_of_range — a crash, not a Status — on fuzzed input).
      if (value > 1'000'000) return Error("arity out of range");
      ++pos_;
    }
    if (pos_ == start) return Error("expected arity");
    return value;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;

  friend StatusOr<Database> ParseDatabaseAt(Cursor* cursor);
};

StatusOr<Tuple> ParseTupleAt(Cursor* cursor, size_t arity) {
  if (!cursor->Eat('(')) return cursor->Error("expected '('");
  std::vector<Value> values;
  if (!cursor->Eat(')')) {
    do {
      KBT_ASSIGN_OR_RETURN(std::string name, cursor->Ident());
      values.push_back(Name(name));
    } while (cursor->Eat(','));
    if (!cursor->Eat(')')) return cursor->Error("expected ')'");
  }
  if (values.size() != arity) {
    return cursor->Error("tuple arity mismatch");
  }
  return Tuple(std::move(values));
}

StatusOr<Database> ParseDatabaseAt(Cursor* cursor) {
  Schema schema;
  std::vector<Relation> relations;
  do {
    KBT_ASSIGN_OR_RETURN(std::string name, cursor->Ident());
    if (!cursor->Eat('/')) return cursor->Error("expected '/<arity>'");
    KBT_ASSIGN_OR_RETURN(size_t arity, cursor->Number());
    if (!cursor->Eat(':')) return cursor->Error("expected ':'");
    if (!cursor->Eat('{')) return cursor->Error("expected '{'");
    std::vector<Tuple> tuples;
    if (!cursor->Eat('}')) {
      do {
        KBT_ASSIGN_OR_RETURN(Tuple t, ParseTupleAt(cursor, arity));
        tuples.push_back(std::move(t));
      } while (cursor->Eat(','));
      if (!cursor->Eat('}')) return cursor->Error("expected '}'");
    }
    KBT_RETURN_IF_ERROR(schema.Append(RelationDecl{Name(name), arity}));
    relations.emplace_back(arity, std::move(tuples));
  } while (cursor->Eat(';'));
  return Database::Create(std::move(schema), std::move(relations));
}

}  // namespace

std::string FormatDatabase(const Database& db) {
  std::string out;
  for (size_t i = 0; i < db.schema().size(); ++i) {
    if (i > 0) out += "; ";
    const RelationDecl& d = db.schema().decl(i);
    out += NameOf(d.symbol);
    out += "/";
    out += std::to_string(d.arity);
    out += ": ";
    out += db.relation_at(i).ToString();
  }
  return out;
}

StatusOr<Database> ParseDatabase(std::string_view text) {
  Cursor cursor(text);
  KBT_ASSIGN_OR_RETURN(Database db, ParseDatabaseAt(&cursor));
  if (!cursor.AtEnd()) return cursor.Error("trailing input after database");
  return db;
}

std::string FormatKnowledgebase(const Knowledgebase& kb) {
  std::string out = "[ ";
  for (size_t i = 0; i < kb.size(); ++i) {
    if (i > 0) out += " | ";
    out += FormatDatabase(kb.World(i));
  }
  out += " ]";
  return out;
}

StatusOr<Knowledgebase> ParseKnowledgebase(std::string_view text) {
  Cursor cursor(text);
  if (!cursor.Eat('[')) return cursor.Error("expected '['");
  std::vector<Database> members;
  if (!cursor.Eat(']')) {
    do {
      KBT_ASSIGN_OR_RETURN(Database db, ParseDatabaseAt(&cursor));
      members.push_back(std::move(db));
    } while (cursor.Eat('|'));
    if (!cursor.Eat(']')) return cursor.Error("expected ']'");
  }
  if (!cursor.AtEnd()) return cursor.Error("trailing input after knowledgebase");
  return Knowledgebase::FromDatabases(std::move(members));
}

}  // namespace kbt
