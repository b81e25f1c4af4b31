#include "table/csv.h"

#include <fstream>
#include <sstream>

namespace tsfm {

namespace {

// Parses CSV into records of fields. Handles quoted fields per RFC 4180.
Result<std::vector<std::vector<std::string>>> ParseRecords(std::string_view text,
                                                           char delim) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  size_t i = 0;
  const size_t n = text.size();

  auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&] {
    end_field();
    records.push_back(std::move(record));
    record.clear();
  };

  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && !field_started) {
      in_quotes = true;
      field_started = true;
      ++i;
      continue;
    }
    if (c == delim) {
      end_field();
      ++i;
      continue;
    }
    if (c == '\r') {
      ++i;  // swallow; \n handles record end
      continue;
    }
    if (c == '\n') {
      end_record();
      ++i;
      continue;
    }
    field.push_back(c);
    field_started = true;
    ++i;
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quoted field");
  }
  if (!field.empty() || !record.empty()) end_record();
  return records;
}

bool NeedsQuoting(const std::string& s, char delim) {
  return s.find(delim) != std::string::npos || s.find('"') != std::string::npos ||
         s.find('\n') != std::string::npos || s.find('\r') != std::string::npos;
}

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<Table> ParseCsv(std::string_view text, char delim) {
  auto records_result = ParseRecords(text, delim);
  if (!records_result.ok()) return records_result.status();
  auto& records = records_result.value();
  if (records.empty()) return Status::ParseError("empty CSV input");

  const auto& header = records[0];
  Table table;
  for (const auto& name : header) {
    table.AddColumn(name, {});
  }
  for (size_t r = 1; r < records.size(); ++r) {
    auto& row = records[r];
    if (row.size() > header.size()) {
      return Status::ParseError("row " + std::to_string(r) + " has " +
                                std::to_string(row.size()) + " fields, header has " +
                                std::to_string(header.size()));
    }
    for (size_t c = 0; c < header.size(); ++c) {
      table.column(c).cells.push_back(c < row.size() ? std::move(row[c])
                                                     : std::string());
    }
  }
  table.InferTypes();
  return table;
}

Result<Table> ReadCsvFile(const std::string& path, char delim) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto result = ParseCsv(buf.str(), delim);
  if (result.ok()) {
    result.value().set_id(path);
  }
  return result;
}

std::string WriteCsv(const Table& table, char delim) {
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out.push_back(delim);
    const std::string& name = table.column(c).name;
    if (NeedsQuoting(name, delim)) {
      AppendQuoted(&out, name);
    } else {
      out += name;
    }
  }
  out.push_back('\n');
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out.push_back(delim);
      const std::string& cell = table.cell(r, c);
      if (NeedsQuoting(cell, delim)) {
        AppendQuoted(&out, cell);
      } else {
        out += cell;
      }
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path, char delim) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << WriteCsv(table, delim);
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace tsfm
