# Container packaging for the experiment service (`repro serve`).
#
#   docker build -t repro .
#   docker run -p 8023:8023 repro
#   curl -sf localhost:8023/healthz
#
# The package needs nothing beyond the standard library.
FROM python:3.12-slim

WORKDIR /app

COPY pyproject.toml setup.py README.md ./
COPY src ./src
RUN pip install --no-cache-dir -e .

# Persistent result store; mount a volume here to keep results across
# container restarts.
ENV REPRO_CACHE_DIR=/data/repro-cache
VOLUME /data

EXPOSE 8023

# The service's /healthz returns 200 with a queue/backend summary only
# while the listener and job queue are live.
HEALTHCHECK --interval=30s --timeout=3s --start-period=5s --retries=3 \
    CMD python -c "import urllib.request; urllib.request.urlopen('http://127.0.0.1:8023/healthz', timeout=2)"

# Bind all interfaces: the container boundary is the network boundary.
CMD ["python", "-m", "repro", "serve", "--host", "0.0.0.0", "--port", "8023", "--cache-dir", "/data/repro-cache"]
