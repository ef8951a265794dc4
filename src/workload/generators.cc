#include "workload/generators.h"

#include <algorithm>
#include <cstdio>
#include <random>

#include "convert/temporal.h"

namespace parparaw {

namespace {

constexpr const char* kWords[] = {
    "the",     "service", "food",    "great",  "place",   "really",
    "good",    "time",    "staff",   "back",   "amazing", "definitely",
    "ordered", "chicken", "friendly", "came",  "wait",    "delicious",
    "menu",    "restaurant"};
constexpr int kNumWords = static_cast<int>(sizeof(kWords) / sizeof(kWords[0]));

constexpr const char* kIdAlphabet =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

std::string RandomId(std::mt19937_64* rng, int length) {
  std::string id(length, 'x');
  for (int i = 0; i < length; ++i) {
    id[i] = kIdAlphabet[(*rng)() % 64];
  }
  return id;
}

// Review-like text of roughly `target_len` characters; sprinkled with
// commas, newlines, and escaped quotes so the quoted-field context paths
// are exercised, mirroring what makes the yelp dataset "challenging".
void AppendReviewText(std::mt19937_64* rng, size_t target_len,
                      std::string* out) {
  size_t written = 0;
  while (written < target_len) {
    const char* word = kWords[(*rng)() % kNumWords];
    out->append(word);
    written += std::char_traits<char>::length(word);
    const uint64_t r = (*rng)() % 100;
    if (r < 4) {
      out->append(", ");
      written += 2;
    } else if (r < 6) {
      out->push_back('\n');
      written += 1;
    } else if (r < 8) {
      out->append("\"\"");  // escaped quote inside a quoted field
      written += 2;
    } else {
      out->push_back(' ');
      written += 1;
    }
  }
}

void AppendQuoted(const std::string& value, std::string* out) {
  out->push_back('"');
  out->append(value);
  out->push_back('"');
}

std::string TimestampString(std::mt19937_64* rng) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d",
                2015 + static_cast<int>((*rng)() % 5),
                1 + static_cast<int>((*rng)() % 12),
                1 + static_cast<int>((*rng)() % 28),
                static_cast<int>((*rng)() % 24),
                static_cast<int>((*rng)() % 60),
                static_cast<int>((*rng)() % 60));
  return buf;
}

void AppendYelpRecord(std::mt19937_64* rng, size_t text_len,
                      std::string* out) {
  AppendQuoted(RandomId(rng, 22), out);
  out->push_back(',');
  AppendQuoted(RandomId(rng, 22), out);
  out->push_back(',');
  AppendQuoted(RandomId(rng, 22), out);
  out->push_back(',');
  AppendQuoted(std::to_string(1 + (*rng)() % 5), out);  // stars
  out->push_back(',');
  AppendQuoted(std::to_string((*rng)() % 50), out);  // useful
  out->push_back(',');
  AppendQuoted(std::to_string((*rng)() % 20), out);  // funny
  out->push_back(',');
  AppendQuoted(std::to_string((*rng)() % 20), out);  // cool
  out->push_back(',');
  out->push_back('"');
  AppendReviewText(rng, text_len, out);
  out->push_back('"');
  out->push_back(',');
  AppendQuoted(TimestampString(rng), out);
  out->push_back('\n');
}

}  // namespace

std::string GenerateYelpLike(uint64_t seed, size_t target_bytes) {
  std::mt19937_64 rng(seed);
  std::string out;
  out.reserve(target_bytes + 4096);
  // Text lengths vary widely around ~560 bytes so the whole record
  // averages ~720 bytes like the real dataset.
  std::lognormal_distribution<double> text_len(6.0, 0.7);
  while (out.size() < target_bytes) {
    const size_t len = std::clamp<size_t>(
        static_cast<size_t>(text_len(rng)), 20, 8000);
    AppendYelpRecord(&rng, len, &out);
  }
  return out;
}

Schema YelpSchema() {
  Schema schema;
  schema.AddField(Field("review_id", DataType::String()));
  schema.AddField(Field("user_id", DataType::String()));
  schema.AddField(Field("business_id", DataType::String()));
  schema.AddField(Field("stars", DataType::Int64()));
  schema.AddField(Field("useful", DataType::Int64()));
  schema.AddField(Field("funny", DataType::Int64()));
  schema.AddField(Field("cool", DataType::Int64()));
  schema.AddField(Field("text", DataType::String()));
  schema.AddField(Field("date", DataType::TimestampMicros()));
  return schema;
}

std::string GenerateTaxiLike(uint64_t seed, size_t target_bytes) {
  std::mt19937_64 rng(seed);
  std::string out;
  out.reserve(target_bytes + 512);
  char buf[256];
  while (out.size() < target_bytes) {
    const int vendor = 1 + static_cast<int>(rng() % 2);
    const std::string pickup = TimestampString(&rng);
    const std::string dropoff = TimestampString(&rng);
    const int passengers = 1 + static_cast<int>(rng() % 6);
    const double distance = static_cast<double>(rng() % 2000) / 100.0;
    const int ratecode = 1 + static_cast<int>(rng() % 6);
    const char store_flag = (rng() % 20 == 0) ? 'Y' : 'N';
    const int pu_loc = 1 + static_cast<int>(rng() % 265);
    const int do_loc = 1 + static_cast<int>(rng() % 265);
    const int payment = 1 + static_cast<int>(rng() % 4);
    const double fare = static_cast<double>(500 + rng() % 5000) / 100.0;
    const double extra = static_cast<double>(rng() % 100) / 100.0;
    const double mta = 0.5;
    const double tip = static_cast<double>(rng() % 1000) / 100.0;
    const double tolls = (rng() % 10 == 0)
                             ? static_cast<double>(rng() % 1200) / 100.0
                             : 0.0;
    const double surcharge = 0.3;
    const double total = fare + extra + mta + tip + tolls + surcharge;
    std::snprintf(buf, sizeof(buf),
                  "%d,%s,%s,%d,%.2f,%d,%c,%d,%d,%d,%.2f,%.2f,%.2f,%.2f,%.2f,"
                  "%.2f,%.2f\n",
                  vendor, pickup.c_str(), dropoff.c_str(), passengers,
                  distance, ratecode, store_flag, pu_loc, do_loc, payment,
                  fare, extra, mta, tip, tolls, surcharge, total);
    out.append(buf);
  }
  return out;
}

Schema TaxiSchema() {
  Schema schema;
  schema.AddField(Field("VendorID", DataType::Int64()));
  schema.AddField(Field("tpep_pickup_datetime", DataType::TimestampMicros()));
  schema.AddField(Field("tpep_dropoff_datetime", DataType::TimestampMicros()));
  schema.AddField(Field("passenger_count", DataType::Int64()));
  schema.AddField(Field("trip_distance", DataType::Float64()));
  schema.AddField(Field("RatecodeID", DataType::Int64()));
  schema.AddField(Field("store_and_fwd_flag", DataType::String()));
  schema.AddField(Field("PULocationID", DataType::Int64()));
  schema.AddField(Field("DOLocationID", DataType::Int64()));
  schema.AddField(Field("payment_type", DataType::Int64()));
  schema.AddField(Field("fare_amount", DataType::Float64()));
  schema.AddField(Field("extra", DataType::Float64()));
  schema.AddField(Field("mta_tax", DataType::Float64()));
  schema.AddField(Field("tip_amount", DataType::Float64()));
  schema.AddField(Field("tolls_amount", DataType::Float64()));
  schema.AddField(Field("improvement_surcharge", DataType::Float64()));
  schema.AddField(Field("total_amount", DataType::Float64()));
  return schema;
}

std::string GenerateSkewed(uint64_t seed, size_t target_bytes,
                           size_t giant_field_bytes, bool yelp_like) {
  std::mt19937_64 rng(seed ^ 0x5ca1ab1e);
  std::string base = yelp_like ? GenerateYelpLike(seed, target_bytes)
                               : GenerateTaxiLike(seed, target_bytes);
  // Insert one record whose text field dwarfs everything else, right after
  // a record boundary near the middle. A yelp-like record ends in its quoted
  // timestamp; the newlines its review text embeds never follow a quote.
  const std::string boundary = yelp_like ? "\"\n" : "\n";
  size_t insert_at = base.find(boundary, base.size() / 2);
  insert_at = insert_at == std::string::npos ? base.size()
                                             : insert_at + boundary.size();
  std::string giant;
  if (yelp_like) {
    giant.reserve(giant_field_bytes + 256);
    AppendYelpRecord(&rng, giant_field_bytes, &giant);
  } else {
    // Taxi-like rows are unquoted; a giant trailing text column would
    // change the schema, so skew the store_and_fwd_flag column instead by
    // preserving the 17-column shape with one huge (unquoted) field.
    giant = "1,2018-01-01 00:00:00,2018-01-01 00:30:00,1,1.00,1,";
    giant.append(giant_field_bytes, 'N');
    giant += ",1,1,1,10.00,0.00,0.50,0.00,0.00,0.30,10.80\n";
  }
  base.insert(insert_at, giant);
  return base;
}

std::string GenerateRandomCsv(uint64_t seed, const RandomCsvOptions& options) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::string out;
  for (int r = 0; r < options.num_records; ++r) {
    int columns = options.num_columns;
    if (coin(rng) < options.ragged_probability) {
      columns = 1 + static_cast<int>(rng() % (2 * options.num_columns));
    }
    for (int c = 0; c < columns; ++c) {
      if (c > 0) out.push_back(',');
      if (coin(rng) < options.empty_probability) continue;
      const bool quoted = coin(rng) < options.quote_probability;
      const int length = 1 + static_cast<int>(
                                 rng() % options.max_field_length);
      if (quoted) {
        out.push_back('"');
        for (int i = 0; i < length; ++i) {
          const double roll = coin(rng);
          if (roll < options.embedded_delimiter_probability / 2) {
            out.push_back(',');
          } else if (roll < options.embedded_delimiter_probability) {
            out.push_back('\n');
          } else if (roll <
                     options.embedded_delimiter_probability +
                         options.escaped_quote_probability) {
            out.append("\"\"");
          } else {
            out.push_back(static_cast<char>('a' + rng() % 26));
          }
        }
        out.push_back('"');
      } else {
        for (int i = 0; i < length; ++i) {
          // Unquoted fields avoid control symbols entirely.
          const uint64_t roll = rng() % 36;
          out.push_back(roll < 26 ? static_cast<char>('a' + roll)
                                  : static_cast<char>('0' + roll - 26));
        }
      }
    }
    const bool last = (r == options.num_records - 1);
    if (!last || options.trailing_newline) out.push_back('\n');
  }
  return out;
}

std::string GenerateLineitemLike(uint64_t seed, size_t target_bytes) {
  std::mt19937_64 rng(seed);
  std::string out;
  out.reserve(target_bytes + 512);
  constexpr const char* kInstruct[] = {"DELIVER IN PERSON", "COLLECT COD",
                                       "NONE", "TAKE BACK RETURN"};
  constexpr const char* kModes[] = {"TRUCK", "MAIL", "SHIP", "AIR", "RAIL",
                                    "FOB",   "REG AIR"};
  char buf[512];
  int64_t orderkey = 1;
  while (out.size() < target_bytes) {
    const int lines = 1 + static_cast<int>(rng() % 7);
    for (int line = 1; line <= lines && out.size() < target_bytes; ++line) {
      const int quantity = 1 + static_cast<int>(rng() % 50);
      const double price = static_cast<double>(90000 + rng() % 10000000) / 100;
      const double discount = static_cast<double>(rng() % 11) / 100;
      const double tax = static_cast<double>(rng() % 9) / 100;
      const char returnflag = "RNA"[rng() % 3];
      const char linestatus = "OF"[rng() % 2];
      const int base_day = 9131 + static_cast<int>(rng() % 2400);  // ~1995+
      std::snprintf(
          buf, sizeof(buf),
          "%lld|%llu|%llu|%d|%d|%.2f|%.2f|%.2f|%c|%c|%s|%s|%s|%s|%s|"
          "comment %llu about shipment\n",
          static_cast<long long>(orderkey),
          static_cast<unsigned long long>(1 + rng() % 200000),
          static_cast<unsigned long long>(1 + rng() % 10000), line, quantity,
          price, discount, tax, returnflag, linestatus,
          FormatDate32(base_day).c_str(),
          FormatDate32(base_day + 30 + static_cast<int>(rng() % 60))
              .c_str(),
          FormatDate32(base_day + 1 + static_cast<int>(rng() % 30))
              .c_str(),
          kInstruct[rng() % 4], kModes[rng() % 7],
          static_cast<unsigned long long>(rng() % 100000));
      out.append(buf);
    }
    ++orderkey;
  }
  return out;
}

Schema LineitemSchema() {
  Schema schema;
  schema.AddField(Field("l_orderkey", DataType::Int64()));
  schema.AddField(Field("l_partkey", DataType::Int64()));
  schema.AddField(Field("l_suppkey", DataType::Int64()));
  schema.AddField(Field("l_linenumber", DataType::Int32()));
  schema.AddField(Field("l_quantity", DataType::Int64()));
  schema.AddField(Field("l_extendedprice", DataType::Decimal64(2)));
  schema.AddField(Field("l_discount", DataType::Decimal64(2)));
  schema.AddField(Field("l_tax", DataType::Decimal64(2)));
  schema.AddField(Field("l_returnflag", DataType::String()));
  schema.AddField(Field("l_linestatus", DataType::String()));
  schema.AddField(Field("l_shipdate", DataType::Date32()));
  schema.AddField(Field("l_commitdate", DataType::Date32()));
  schema.AddField(Field("l_receiptdate", DataType::Date32()));
  schema.AddField(Field("l_shipinstruct", DataType::String()));
  schema.AddField(Field("l_shipmode", DataType::String()));
  schema.AddField(Field("l_comment", DataType::String()));
  return schema;
}

std::string GenerateLogLike(uint64_t seed, size_t target_bytes) {
  std::mt19937_64 rng(seed);
  std::string out;
  out.reserve(target_bytes + 512);
  out += "#Version: 1.0\n";
  out += "#Fields: date time cs-method cs-uri sc-status time-taken\n";
  char buf[256];
  while (out.size() < target_bytes) {
    if (rng() % 50 == 0) {
      out += "#Remark: \"rotation, checkpoint\"\n";  // directive with quotes
      continue;
    }
    std::snprintf(
        buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d %s /p%llu/r%llu %d %d\n",
        2019 + static_cast<int>(rng() % 2), 1 + static_cast<int>(rng() % 12),
        1 + static_cast<int>(rng() % 28), static_cast<int>(rng() % 24),
        static_cast<int>(rng() % 60), static_cast<int>(rng() % 60),
        (rng() % 4 == 0) ? "POST" : "GET",
        static_cast<unsigned long long>(rng() % 1000),
        static_cast<unsigned long long>(rng() % 100000),
        (rng() % 10 == 0) ? 404 : 200, static_cast<int>(rng() % 2000));
    out.append(buf);
  }
  return out;
}

}  // namespace parparaw
